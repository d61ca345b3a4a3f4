package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/messaging"
	"replidtn/internal/obs"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/spraywait"
	"replidtn/internal/transport"
	"replidtn/internal/vclock"
)

// encounterTimeout bounds one TCP encounter; a healthy one takes
// milliseconds, so reaching it is a failure, not a slow sample.
const encounterTimeout = 20 * time.Second

// peer is one replica with a TCP face. Endpoint-backed peers are built the
// way cmd/dtnnode builds its node: a messaging.Endpoint behind a
// transport.Server, both feeding obs metrics.
type peer struct {
	r        *replica.Replica
	ep       *messaging.Endpoint // nil for a raw replica
	srv      *transport.Server
	addr     string
	maxItems int // the server's per-batch bound
	tm       obs.TransportMetrics

	// received counts first-time deliveries (OnReceive / OnDeliver);
	// expected counts messages sent to an address homed here. The two must
	// be equal when a run ends.
	received atomic.Int64
	expected atomic.Int64

	// Set on durable peers.
	db   *wal.DB
	fs   *countingFS
	walm obs.WALMetrics
	dir  string
}

// listen puts the peer's replica behind a transport server on loopback.
func (p *peer) listen(maxItems int) error {
	p.maxItems = maxItems
	p.srv = transport.NewServer(p.r, maxItems)
	p.srv.Metrics = &p.tm
	addr, err := p.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	p.addr = addr.String()
	return nil
}

// attachWAL opens a write-ahead log on real files under dir with the
// package's default flush and compaction policy and journals every later
// mutation of the peer through it.
func (p *peer) attachWAL(dir string, tr *tracer) error {
	osfs, err := wal.NewOSFS(dir)
	if err != nil {
		return err
	}
	p.dir = dir
	p.fs = &countingFS{FS: osfs, tracer: tr}
	if p.db, err = wal.Open(p.fs, wal.Options{Metrics: &p.walm}); err != nil {
		return err
	}
	if _, err := p.db.Load(); !errors.Is(err, wal.ErrNoState) {
		return fmt.Errorf("fresh wal directory %s: Load = %v", dir, err)
	}
	return p.db.Attach(p.r)
}

func (p *peer) close() error {
	var err error
	if p.srv != nil {
		err = p.srv.Close()
	}
	if p.db != nil {
		if cerr := p.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
		p.db = nil
	}
	return err
}

// world is one live workload's set of nodes.
type world interface {
	// dialers is the number of closed-loop dialer goroutines (C).
	dialers() int
	// step runs one iteration of dialer d: the iteration's local message
	// creations through rec.send, then exactly one encounter through meet.
	step(d int, rec *recorder, meet meetFunc) error
	// peers lists the long-lived replicas, for counters and checks.
	peers() []*peer
	// check appends a line per failed output check and returns how many
	// checks it made.
	check(encounters int, failures *[]string) int
	// probePair returns a dialer and the listener it meets, for probes that
	// run after a pass.
	probePair() (*replica.Replica, *peer)
	close() error
}

// meetFunc performs one encounter on behalf of dialer against listener and
// returns its result and duration: over loopback TCP in the measured phase,
// replayed in process in the traced pass.
type meetFunc func(dialer *replica.Replica, listener *peer, maxItems int) (replica.EncounterResult, time.Duration, error)

// recorder collects one dialer goroutine's samples.
type recorder struct {
	tracer     *tracer // set in the traced pass
	tm         obs.TransportMetrics
	sends      []time.Duration
	encounters []time.Duration
	items      int
	failed     int
	dialErrors int
	firstErr   error
}

// send times one local message creation.
func (rec *recorder) send(create func() error) error {
	if rec.tracer != nil {
		s := rec.tracer.begin(spanSend)
		err := create()
		rec.tracer.end(s)
		return err
	}
	start := time.Now()
	err := create()
	rec.sends = append(rec.sends, time.Since(start))
	return err
}

// tcpMeet times transport.EncounterOpts from just before the call to its
// return, with the dialer's obs metrics attached as cmd/dtnnode does.
func (rec *recorder) tcpMeet(dialer *replica.Replica, listener *peer, maxItems int) (replica.EncounterResult, time.Duration, error) {
	start := time.Now()
	res, err := transport.EncounterOpts(dialer, listener.addr, maxItems, encounterTimeout,
		transport.DialOptions{Metrics: &rec.tm})
	return res, time.Since(start), err
}

// meetAndCount runs one encounter through meet and folds it into rec.
func (rec *recorder) meetAndCount(meet meetFunc, dialer *replica.Replica, listener *peer, maxItems int) error {
	res, dur, err := meet(dialer, listener, maxItems)
	if err != nil {
		rec.failed++
		var op *net.OpError
		if errors.As(err, &op) && op.Op == "dial" {
			rec.dialErrors++
		}
		if rec.firstErr == nil {
			rec.firstErr = err
		}
		return err
	}
	rec.encounters = append(rec.encounters, dur)
	ap := res.BtoA.Apply
	// The listener applies what the dialer sent; duplicates, which would
	// make the two differ, fail the run separately.
	rec.items += ap.Stored + ap.Relayed + ap.Tombstones + res.AtoB.Sent
	return nil
}

// gen makes a workload's inputs from the seed: the payload bytes.
type gen struct{ rng *rand.Rand }

func newGen(seed int64) *gen { return &gen{rng: rand.New(rand.NewSource(seed))} }

func (g *gen) payload(n int) []byte {
	b := make([]byte, n)
	g.rng.Read(b) // never fails
	return b
}

func messageMeta(from, to string, now int64) item.Metadata {
	return item.Metadata{Source: from, Destinations: []string{to}, Kind: messaging.KindMessage, Created: now}
}

func newPolicy(name string, now func() int64, addr string) routing.Policy {
	switch name {
	case "prophet":
		return prophet.New(prophet.DefaultParams(), now, addr)
	case "spray":
		return spraywait.New(0)
	case "epidemic":
		return epidemic.New(0)
	}
	return nil
}

// pairSpec is the shape shared by pair-recurring and durable-small.
type pairSpec struct {
	prefill   int    // group messages both nodes hold before the run
	history   int    // throw-away peers each node met before the run
	policy    string // prophet or spray
	summaries bool
	durable   bool
	// direct and thirdParty are the messages each node sends per iteration
	// to its peer and to an address neither node homes (which the policy
	// may relay).
	direct, thirdParty int
	payload            int
}

const (
	groupAddr     = "group:all"
	elsewhereAddr = "user:elsewhere"
)

// pairWorld is two symmetric endpoint nodes; a always dials b.
type pairWorld struct {
	spec pairSpec
	clk  atomic.Int64
	gen  *gen
	a, b *peer
}

func (w *pairWorld) now() int64 { return w.clk.Load() }

func (w *pairWorld) newNode(id string, extra ...string) *peer {
	p := &peer{}
	addr := "user:" + id
	p.ep = messaging.NewEndpoint(messaging.Config{
		NodeID:               vclock.ReplicaID(id),
		Addresses:            []string{addr},
		ExtraFilterAddresses: extra,
		Policy:               newPolicy(w.spec.policy, w.now, addr),
		Now:                  w.now,
		SyncSummaries:        w.spec.summaries,
		OnReceive:            func(messaging.Received) { p.received.Add(1) },
	})
	p.r = p.ep.Replica()
	return p
}

func buildPair(cfg Config, spec pairSpec, tr *tracer) (world, error) {
	w := &pairWorld{spec: spec, gen: newGen(cfg.Seed)}
	w.a = w.newNode("a", groupAddr)
	w.b = w.newNode("b", groupAddr)
	// Encounter history first, while the stores are empty: it only has to
	// leave routing and summary state behind.
	for j := 0; j < spec.history; j++ {
		for _, p := range []*peer{w.a, w.b} {
			w.clk.Add(1)
			t := w.newNode(fmt.Sprintf("t%s%d", p.r.ID(), j))
			replica.Encounter(p.r, t.r, 0)
		}
	}
	for j := 0; j < spec.prefill; j++ {
		p := w.a
		if j%2 == 1 {
			p = w.b
		}
		if _, err := p.ep.Send(p.ep.Addresses()[0], []string{groupAddr}, w.gen.payload(spec.payload)); err != nil {
			return nil, err
		}
	}
	for _, p := range []*peer{w.a, w.b} {
		if err := p.listen(0); err != nil {
			return nil, err
		}
	}
	// Two warm-up encounters over TCP: the first moves the prefill so both
	// nodes hold and know everything, the second settles the pair into its
	// steady request form.
	for i := 0; i < 2; i++ {
		if _, err := transport.EncounterOpts(w.a.r, w.b.addr, 0, encounterTimeout, transport.DialOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up encounter: %w", err)
		}
	}
	if spec.durable {
		for _, p := range []*peer{w.a, w.b} {
			dir, err := os.MkdirTemp(cfg.TmpDir, "wal-"+string(p.r.ID())+"-")
			if err != nil {
				return nil, err
			}
			if err := p.attachWAL(dir, tr); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *pairWorld) dialers() int   { return 1 }
func (w *pairWorld) peers() []*peer { return []*peer{w.a, w.b} }

func (w *pairWorld) probePair() (*replica.Replica, *peer) { return w.a.r, w.b }

func (w *pairWorld) sendAll(from, to *peer, rec *recorder) error {
	src := from.ep.Addresses()[0]
	for k := 0; k < w.spec.direct+w.spec.thirdParty; k++ {
		dst := to.ep.Addresses()[0]
		if k >= w.spec.direct {
			dst = elsewhereAddr
		} else {
			to.expected.Add(1)
		}
		body := w.gen.payload(w.spec.payload)
		if err := rec.send(func() error {
			_, err := from.ep.Send(src, []string{dst}, body)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (w *pairWorld) step(_ int, rec *recorder, meet meetFunc) error {
	w.clk.Add(1)
	if err := w.sendAll(w.a, w.b, rec); err != nil {
		return err
	}
	if err := w.sendAll(w.b, w.a, rec); err != nil {
		return err
	}
	err := rec.meetAndCount(meet, w.a.r, w.b, 0)
	// A long-running application drains its inbox; so does the benchmark.
	w.a.ep.TakeInbox()
	w.b.ep.TakeInbox()
	return err
}

func (w *pairWorld) check(_ int, failures *[]string) int {
	return checkDeliveries(w.peers(), failures)
}

func (w *pairWorld) close() error {
	err := w.a.close()
	if berr := w.b.close(); err == nil {
		err = berr
	}
	for _, p := range w.peers() {
		if p.dir != "" {
			if rerr := os.RemoveAll(p.dir); err == nil {
				err = rerr
			}
		}
	}
	return err
}

// checkDeliveries verifies that every message sent to a node was delivered
// to it exactly once and that no replica saw a duplicate version.
func checkDeliveries(peers []*peer, failures *[]string) int {
	checks := 0
	for _, p := range peers {
		st := p.r.Stats()
		checks += 2
		if got, want := p.received.Load(), p.expected.Load(); got != want || int64(st.Delivered) != want {
			*failures = append(*failures, fmt.Sprintf("%s: %d messages sent to it, %d received, %d delivered by the replica", p.r.ID(), want, got, st.Delivered))
		}
		if st.Duplicates != 0 {
			*failures = append(*failures, fmt.Sprintf("%s: %d duplicate versions", p.r.ID(), st.Duplicates))
		}
	}
	return checks
}

// hubWorld is one match-all hub with no routing policy — the paper's
// Cimbiosys baseline — serving C light dialers.
type hubWorld struct {
	clk     atomic.Int64
	hub     *peer
	clients []*peer
	gens    []*gen // one per dialer goroutine
	initial int    // hub entries when the measured phase starts
	payload int
}

func buildHub(cfg Config, prefill, payload int) (world, error) {
	w := &hubWorld{payload: payload}
	now := func() int64 { return w.clk.Load() }
	w.hub = &peer{}
	w.hub.r = replica.New(replica.Config{ID: "hub", Filter: filter.All{}, Now: now})
	g := newGen(cfg.Seed)
	for j := 0; j < prefill; j++ {
		// Addressed to nodes that never dial, so a dialer's filter matches
		// none of it and every serve scans the whole store for nothing.
		w.hub.r.CreateItem(messageMeta("user:origin", fmt.Sprintf("user:far%d", j%97), 0), g.payload(payload))
	}
	if err := w.hub.listen(0); err != nil {
		return nil, err
	}
	for k := 0; k < cfg.Dialers; k++ {
		c := &peer{}
		c.r = replica.New(replica.Config{
			ID:             vclock.ReplicaID(fmt.Sprintf("d%d", k)),
			OwnAddresses:   []string{fmt.Sprintf("user:d%d", k)},
			MergeKnowledge: true,
			Now:            now,
			OnDeliver:      func(*item.Item) { c.received.Add(1) },
		})
		w.clients = append(w.clients, c)
		w.gens = append(w.gens, newGen(cfg.Seed+int64(k)+1))
		// Warm-up: the dialer adopts the hub's knowledge wholesale.
		if _, err := transport.EncounterOpts(c.r, w.hub.addr, 0, encounterTimeout, transport.DialOptions{}); err != nil {
			return nil, fmt.Errorf("warm-up encounter: %w", err)
		}
	}
	w.initial = w.storeSize()
	return w, nil
}

func (w *hubWorld) dialers() int   { return len(w.clients) }
func (w *hubWorld) peers() []*peer { return append([]*peer{w.hub}, w.clients...) }

func (w *hubWorld) probePair() (*replica.Replica, *peer) { return w.clients[0].r, w.hub }

func (w *hubWorld) storeSize() int {
	total, _, _ := w.hub.r.StoreLen()
	return total
}

func (w *hubWorld) step(d int, rec *recorder, meet meetFunc) error {
	now := w.clk.Add(1)
	c, g := w.clients[d], w.gens[d]
	own := fmt.Sprintf("user:d%d", d)
	c.r.CreateItem(messageMeta(own, "user:sink", now), g.payload(w.payload))
	// The creation that is timed is the hub's: it queues behind serve scans
	// on the hub's mutex, which is what this workload is about.
	body := g.payload(w.payload)
	c.expected.Add(1)
	rec.send(func() error {
		w.hub.r.CreateItem(messageMeta("user:origin", own, now), body)
		return nil
	})
	return rec.meetAndCount(meet, c.r, w.hub, 0)
}

func (w *hubWorld) check(encounters int, failures *[]string) int {
	checks := checkDeliveries(w.clients, failures) + 2
	if st := w.hub.r.Stats(); st.Duplicates != 0 {
		*failures = append(*failures, fmt.Sprintf("hub: %d duplicate versions", st.Duplicates))
	}
	// One message each way per encounter, all of which the hub keeps.
	if got, want := w.storeSize(), w.initial+2*encounters; got != want {
		*failures = append(*failures, fmt.Sprintf("hub holds %d entries, want %d", got, want))
	}
	return checks
}

func (w *hubWorld) close() error { return w.hub.close() }

// bulkWorld is one well-stocked epidemic server and a stream of first
// contacts: every encounter is dialed by a fresh, empty replica.
type bulkWorld struct {
	clk       atomic.Int64
	server    *peer
	batch     int // maxItems on both sides
	direct    int // server messages addressed to the dialer
	delivered int // deliveries at fresh dialers so far
	applied   int
	dups      int
}

const bulkDialerAddr = "user:d"

func buildBulk(cfg Config, prefill, payload, batch, direct int) (world, error) {
	w := &bulkWorld{batch: batch, direct: direct}
	now := func() int64 { return w.clk.Load() }
	w.server = &peer{}
	w.server.ep = messaging.NewEndpoint(messaging.Config{
		NodeID: "server", Addresses: []string{"user:server"},
		Policy: epidemic.New(0), Now: now,
	})
	w.server.r = w.server.ep.Replica()
	g := newGen(cfg.Seed)
	for j := 0; j < prefill; j++ {
		to := fmt.Sprintf("user:far%d", j%97)
		if j < direct {
			to = bulkDialerAddr
		}
		if _, err := w.server.ep.Send("user:server", []string{to}, g.payload(payload)); err != nil {
			return nil, err
		}
	}
	if err := w.server.listen(batch); err != nil {
		return nil, err
	}
	// Warm-up: the first serve stamps every stored copy's initial TTL.
	if _, err := transport.EncounterOpts(w.freshDialer(), w.server.addr, batch, encounterTimeout, transport.DialOptions{}); err != nil {
		return nil, fmt.Errorf("warm-up encounter: %w", err)
	}
	w.delivered = 0
	return w, nil
}

func (w *bulkWorld) freshDialer() *replica.Replica {
	return replica.New(replica.Config{
		ID: "d", OwnAddresses: []string{bulkDialerAddr},
		Policy:    epidemic.New(0),
		Now:       func() int64 { return w.clk.Load() },
		OnDeliver: func(*item.Item) { w.delivered++ },
	})
}

func (w *bulkWorld) dialers() int   { return 1 }
func (w *bulkWorld) peers() []*peer { return []*peer{w.server} }

func (w *bulkWorld) probePair() (*replica.Replica, *peer) { return w.freshDialer(), w.server }

func (w *bulkWorld) storeSize() int {
	total, _, _ := w.server.r.StoreLen()
	return total
}

func (w *bulkWorld) step(_ int, rec *recorder, meet meetFunc) error {
	w.clk.Add(1)
	d := w.freshDialer()
	err := rec.meetAndCount(meet, d, w.server, w.batch)
	st := d.Stats()
	w.applied += st.ItemsReceived
	w.dups += st.Duplicates
	return err
}

func (w *bulkWorld) check(encounters int, failures *[]string) int {
	batch := w.batch
	if n := w.storeSize(); n < batch {
		batch = n
	}
	if w.applied != encounters*batch || w.delivered != encounters*w.direct {
		*failures = append(*failures, fmt.Sprintf("fresh dialers applied %d items and took %d deliveries over %d encounters, want %d and %d",
			w.applied, w.delivered, encounters, encounters*batch, encounters*w.direct))
	}
	if st := w.server.r.Stats(); w.dups != 0 || st.Duplicates != 0 {
		*failures = append(*failures, fmt.Sprintf("%d duplicate versions at dialers, %d at the server", w.dups, st.Duplicates))
	}
	return 2
}

func (w *bulkWorld) close() error { return w.server.close() }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase is the outcome of one closed-loop pass over a world.
type phase struct {
	wall       time.Duration
	cpu        time.Duration
	recs       []*recorder
	encounters []time.Duration // all dialers' successful encounters, sorted
	sends      []time.Duration // sorted
	items      int
	failed     int
	dialErrors int
	firstErr   error
}

// runPhase drives every dialer of w through ops iterations, each dialer
// issuing its next encounter only after the previous one returned. A step
// that fails counts once and the loop goes on. deadline bounds the pass on a
// machine far slower than the sizes assume. With ref set, dialer 0 takes a
// host reading every refEvery iterations while no encounter is in flight;
// the time that takes is left out of the pass's wall and CPU time.
func runPhase(w world, ops int, deadline time.Duration, ref *hostRef, newRec func() *recorder, meetOf func(*recorder) meetFunc) *phase {
	ph := &phase{}
	// Dialers hold gate for reading across an iteration; a host reading
	// holds it for writing, so it waits for the encounters in flight and
	// runs alone.
	var gate sync.RWMutex
	var refSpent time.Duration
	if ref != nil {
		refSpent = ref.spent
	}
	c := w.dialers()
	ph.recs = make([]*recorder, c)
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < c; d++ {
		rec := newRec()
		rec.encounters = make([]time.Duration, 0, ops)
		ph.recs[d] = rec
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			meet := meetOf(rec)
			for i := 0; i < ops; i++ {
				if rec.tracer != nil {
					// Every other iteration runs with only its root timed.
					rec.tracer.off = i%2 == 1
				}
				if d == 0 && ref != nil && i%refEvery == 0 {
					gate.Lock()
					ref.read(refReadMB)
					gate.Unlock()
				}
				gate.RLock()
				before := rec.failed
				err := w.step(d, rec, meet)
				gate.RUnlock()
				if err != nil && rec.failed == before {
					rec.failed++
					if rec.firstErr == nil {
						rec.firstErr = err
					}
				}
				if time.Since(start) > deadline {
					rec.failed += ops - 1 - i
					if rec.firstErr == nil {
						rec.firstErr = fmt.Errorf("pass exceeded %v after %d of %d iterations", deadline, i+1, ops)
					}
					return
				}
			}
		}(d)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	if ref != nil {
		ph.wall -= ref.spent - refSpent
		ph.cpu -= ref.spent - refSpent
	}
	for _, rec := range ph.recs {
		ph.encounters = append(ph.encounters, rec.encounters...)
		ph.sends = append(ph.sends, rec.sends...)
		ph.items += rec.items
		ph.failed += rec.failed
		ph.dialErrors += rec.dialErrors
		if ph.firstErr == nil {
			ph.firstErr = rec.firstErr
		}
	}
	sortDurations(ph.encounters)
	sortDurations(ph.sends)
	return ph
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// caller keeps the nodes reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
