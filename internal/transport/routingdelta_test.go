package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"testing"

	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// Count tests, not clocks: what a recurring pair puts on a loopback TCP
// connection once its routing state travels as deltas, frame by frame.

// sniffedFrame is one frame a frameSniffer forwarded.
type sniffedFrame struct {
	toServer bool
	msgType  byte
	size     int    // as the transport counts it: length prefix, type byte, body
	body     []byte // what follows the type byte
}

// frameSniffer is a TCP proxy in front of a server that records every frame
// crossing it, in either direction.
type frameSniffer struct {
	mu     sync.Mutex
	frames []sniffedFrame
	conns  []net.Conn // both ends of every proxied session, cut at cleanup
}

// sniff starts a proxy for upstream and returns the address to dial instead.
func sniff(t *testing.T, upstream string) (string, *frameSniffer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &frameSniffer{}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		// The dialer parks its session idle, so the proxy must cut it.
		s.mu.Lock()
		for _, c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := netDial(upstream)
			if err != nil {
				down.Close()
				continue
			}
			s.mu.Lock()
			s.conns = append(s.conns, down, up)
			s.mu.Unlock()
			wg.Add(2)
			go func() { defer wg.Done(); s.forward(up, down, true) }()
			go func() { defer wg.Done(); s.forward(down, up, false) }()
		}
	}()
	return ln.Addr().String(), s
}

// forward copies frames from src to dst until src ends, then closes dst so
// the other direction ends too.
func (s *frameSniffer) forward(dst, src net.Conn, toServer bool) {
	defer dst.Close()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 4+binary.LittleEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(src, frame[4:]); err != nil {
			return
		}
		s.mu.Lock()
		s.frames = append(s.frames, sniffedFrame{toServer: toServer, msgType: frame[4], size: len(frame), body: frame[5:]})
		s.mu.Unlock()
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// take returns the frames recorded since the last call.
func (s *frameSniffer) take() []sniffedFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.frames
	s.frames = nil
	return out
}

// deltaPeer is one end of a recurring pair: a summaries-on replica under a
// routing policy, with its metrics.
type deltaPeer struct {
	r  *replica.Replica
	rm obs.ReplicaMetrics
	tm obs.TransportMetrics
}

func newDeltaPeer(id string, policy routing.Policy) *deltaPeer {
	p := &deltaPeer{}
	p.r = replica.New(replica.Config{
		ID: vclock.ReplicaID(id), OwnAddresses: []string{"addr:" + id},
		Policy: policy, SyncSummaries: true, Metrics: &p.rm,
	})
	return p
}

// routingCounts is the routing half of a replica's frame accounting.
type routingCounts struct{ fullFrames, deltaFrames, fullBytes, deltaBytes, fallbacks int64 }

func (p *deltaPeer) counts() routingCounts {
	s := p.rm.Snapshot()
	return routingCounts{s.RoutingFullFrames, s.RoutingDeltaFrames, s.RoutingFullBytes, s.RoutingDeltaBytes, s.SummaryFallbacks}
}

func (c routingCounts) minus(o routingCounts) routingCounts {
	return routingCounts{c.fullFrames - o.fullFrames, c.deltaFrames - o.deltaFrames, c.fullBytes - o.fullBytes, c.deltaBytes - o.deltaBytes, c.fallbacks - o.fallbacks}
}

// meet runs one encounter, b dialing a through addr, and returns the bytes
// b's transport counted for it.
func meet(t *testing.T, b *deltaPeer, addr string) int64 {
	dl := newDialer(t)
	t.Helper()
	before := b.tm.BytesRead.Value() + b.tm.BytesWritten.Value()
	if _, err := dl.Encounter(b.r, addr, 0, testTimeout, DialOptions{Metrics: &b.tm}); err != nil {
		t.Fatalf("encounter: %v", err)
	}
	return b.tm.BytesRead.Value() + b.tm.BytesWritten.Value() - before
}

// requestFrames returns the sizes of the sync-request frames among frames,
// the dialer's first.
func requestFrames(frames []sniffedFrame) []int {
	var toServer, toDialer []int
	for _, f := range frames {
		if f.msgType != frameSyncRequest {
			continue
		}
		if f.toServer {
			toServer = append(toServer, f.size)
		} else {
			toDialer = append(toDialer, f.size)
		}
	}
	return append(toServer, toDialer...)
}

// TestProphetPairSendsDeltasOverTCP: two PROPHET nodes that each met 64
// other peers — a 64-entry vector, over 1 KB encoded, twice that once each
// has folded the other's in — meet again and again. The first encounter
// ships the vectors whole. While P(a,b) still climbs toward 1, every
// encounter raises each entry learned through the peer in its last digits,
// and a delta says so; once it has settled, a request frame is at most 200
// bytes and the whole encounter, one message delivered each way, at most
// 1100, aging pass or not. Restarting one node costs exactly one fallback
// round, and the next encounter is on deltas again.
func TestProphetPairSendsDeltasOverTCP(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	newNode := func(id string) *deltaPeer {
		return newDeltaPeer(id, prophet.New(prophet.DefaultParams(), clock, "addr:"+id))
	}
	a, b := newNode("a"), newNode("b")
	for i := 0; i < 64; i++ {
		for _, p := range []*deltaPeer{a, b} {
			now++
			replica.Encounter(p.r, newNode(fmt.Sprintf("t%s%d", p.r.ID(), i)).r, 0)
		}
	}
	srvAddr, _ := serve(t, a.r, 0)
	addr, sniffer := sniff(t, srvAddr)

	exchange := func() (int64, []int) {
		sendMsg(a.r, "addr:a", "addr:b")
		sendMsg(b.r, "addr:b", "addr:a")
		total := meet(t, b, addr)
		return total, requestFrames(sniffer.take())
	}

	startA, startB := a.counts(), b.counts()
	_, first := exchange()
	if len(first) != 2 || first[0] < 1000 || first[1] < 1000 {
		t.Fatalf("first-contact request frames are %v bytes, want two full vectors", first)
	}
	for _, p := range []struct {
		peer  *deltaPeer
		start routingCounts
	}{{a, startA}, {b, startB}} {
		if got := p.peer.counts().minus(p.start); got.fullFrames != 1 || got.deltaFrames != 0 || got.fullBytes < 1000 {
			t.Errorf("%s after first contact: %+v, want one full routing frame of a 64-entry vector", p.peer.r.ID(), got)
		}
	}

	// Settle: 0.25^n vanishes against 1 in under 30 encounters.
	for i := 0; i < 40; i++ {
		replica.Encounter(a.r, b.r, 0)
	}

	for round, gap := range []int64{1, 1, prophet.DefaultParams().AgingUnit, 1, 500 * prophet.DefaultParams().AgingUnit} {
		now += gap
		beforeA, beforeB := a.counts(), b.counts()
		total, reqs := exchange()
		if len(reqs) != 2 || reqs[0] > 200 || reqs[1] > 200 {
			t.Errorf("round %d (clock +%d): request frames are %v bytes, want two of at most 200", round, gap, reqs)
		}
		if total > 1100 {
			t.Errorf("round %d (clock +%d): the encounter moved %d bytes, want at most 1100", round, gap, total)
		}
		for _, got := range []routingCounts{a.counts().minus(beforeA), b.counts().minus(beforeB)} {
			if got.deltaFrames != 1 || got.fullFrames != 0 || got.fallbacks != 0 || got.deltaBytes <= 0 || got.deltaBytes > 150 {
				t.Errorf("round %d (clock +%d): %+v, want one routing delta of at most 150 bytes and nothing else", round, gap, got)
			}
		}
	}

	// a restarts: the baseline it held for b is gone, and its epoch moved.
	snap, err := a.r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a2 := newNode("a")
	if err := a2.r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	srvAddr2, _ := serve(t, a2.r, 0)
	now++
	beforeB := b.counts()
	sendMsg(b.r, "addr:b", "addr:a")
	meet(t, b, srvAddr2)
	gotA, gotB := a2.counts(), b.counts().minus(beforeB)
	if gotB.fallbacks != 1 || gotB.deltaFrames != 1 || gotB.fullFrames != 1 {
		t.Errorf("b against the restarted a: %+v, want a refused delta and one fallback round with the full vector", gotB)
	}
	if gotA.fallbacks != 0 || gotA.fullFrames != 1 || gotA.deltaFrames != 0 {
		t.Errorf("restarted a: %+v, want one full first-contact frame and no fallback", gotA)
	}
	now++
	beforeA, beforeB := a2.counts(), b.counts()
	meet(t, b, srvAddr2)
	for _, got := range []routingCounts{a2.counts().minus(beforeA), b.counts().minus(beforeB)} {
		if got.deltaFrames != 1 || got.fullFrames != 0 || got.fallbacks != 0 {
			t.Errorf("encounter after the restart's: %+v, want the pair back on deltas", got)
		}
	}
	if d := a2.r.Stats().Duplicates + b.r.Stats().Duplicates; d != 0 {
		t.Errorf("%d duplicate versions", d)
	}
}

// TestMaxPropPairSendsChangedRowsOverTCP: two MaxProp nodes holding a 65-row
// table each keep meeting. In steady state a request's routing part is the
// two rows every encounter replaces — the sender's own and its peer's — and
// the homes restamped with them, not the table.
func TestMaxPropPairSendsChangedRowsOverTCP(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	newNode := func(id string) *deltaPeer {
		return newDeltaPeer(id, maxprop.New(vclock.ReplicaID(id), 3, clock, "addr:"+id))
	}
	a, b := newNode("a"), newNode("b")
	for i := 0; i < 64; i++ {
		for _, p := range []*deltaPeer{a, b} {
			now++
			replica.Encounter(p.r, newNode(fmt.Sprintf("t%s%d", p.r.ID(), i)).r, 0)
		}
	}
	addr, _ := serve(t, a.r, 0)
	meet(t, b, addr)
	now++
	meet(t, b, addr)
	for round := 0; round < 3; round++ {
		now++
		beforeA, beforeB := a.counts(), b.counts()
		meet(t, b, addr)
		for _, p := range []struct {
			peer *deltaPeer
			got  routingCounts
		}{{a, a.counts().minus(beforeA)}, {b, b.counts().minus(beforeB)}} {
			// The two widest rows of the table the node now publishes.
			table := p.peer.r.Policy().GenerateReq().(*maxprop.Request).Table
			var rows []int
			for _, e := range table.Entries() {
				rows = append(rows, len((&maxprop.Request{Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{e.Key: e.Val})}).AppendBinary(nil)))
			}
			sort.Sort(sort.Reverse(sort.IntSlice(rows)))
			bound := int64(rows[0] + rows[1] + 64)
			if p.got.deltaFrames != 1 || p.got.fullFrames != 0 || p.got.deltaBytes > bound {
				t.Errorf("round %d, %s: %+v, want one routing delta of at most two rows' %d bytes (table: %d rows)",
					round, p.peer.r.ID(), p.got, bound, table.Len())
			}
		}
	}
}

// TestHostileRoutingDeltaRejected: a peer that has established an honest
// baseline follows it with a routing delta no honest sender emits. What the
// decoder can tell on its own — a factor or value out of range, keys out of
// order, a delta without the knowledge delta whose tags it rides — is a
// validation error; what only the baseline can tell — a tag that does not
// extend it, a delta that does not fit it — is refused with a knowledge
// demand. Either way the policy sees nothing and the baseline stays where it
// was: the honest next delta is served afterwards.
func TestHostileRoutingDeltaRejected(t *testing.T) {
	const epoch = 7
	now := func() int64 { return 0 }
	baseVector := &prophet.Request{
		OwnAddresses:   []string{"addr:evil"},
		Predictability: sorted.FromMap(map[string]float64{"addr:x": 0.5, "addr:y": 0.25}),
	}
	baseTable := &maxprop.Request{
		Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{"evil": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"x": 1}), Updated: 1}}),
		Homes: sorted.FromMap(map[string]maxprop.Home{"addr:evil": {Node: "evil", Updated: 1}}),
	}
	honestVector := &prophet.Delta{Factors: []float64{0.5}, Set: sorted.FromMap(map[string]float64{"addr:z": 0.75}), Total: 3}
	honestTable := &maxprop.Delta{
		Rows:      sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{"z": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"evil": 1}), Updated: 2}}),
		TotalRows: 2, TotalHomes: 1,
	}
	vector := func(edit func(*prophet.Delta)) routing.Delta {
		d := &prophet.Delta{Factors: []float64{0.5}, Set: sorted.FromMap(map[string]float64{"addr:y": 0.75, "addr:z": 0.75}), Total: 3}
		edit(d)
		return d
	}
	factor := func(f float64) routing.Delta { return vector(func(d *prophet.Delta) { d.Factors[0] = f }) }
	// rekey rewrites one key of an encoded frame, to forge an order the
	// encoder would never emit.
	rekey := func(from, to string) func([]byte) []byte {
		return func(frame []byte) []byte { return bytes.Replace(frame, []byte(from), []byte(to), 1) }
	}

	type request struct {
		gen    uint64 // 0: no knowledge delta, an exact frame instead
		epoch  uint64
		delta  routing.Delta
		mangle func([]byte) []byte
	}
	cases := []struct {
		name    string
		maxprop bool
		req     request
		want    string // "validation", or "refused" for a knowledge demand
	}{
		{name: "factor NaN", req: request{gen: 2, epoch: epoch, delta: factor(math.NaN())}, want: "validation"},
		{name: "factor +Inf", req: request{gen: 2, epoch: epoch, delta: factor(math.Inf(1))}, want: "validation"},
		{name: "factor -Inf", req: request{gen: 2, epoch: epoch, delta: factor(math.Inf(-1))}, want: "validation"},
		{name: "factor zero", req: request{gen: 2, epoch: epoch, delta: factor(0)}, want: "validation"},
		{name: "factor negative", req: request{gen: 2, epoch: epoch, delta: factor(-0.5)}, want: "validation"},
		{name: "factor above one", req: request{gen: 2, epoch: epoch, delta: factor(1.5)}, want: "validation"},
		{name: "value above one", req: request{gen: 2, epoch: epoch,
			delta: vector(func(d *prophet.Delta) { d.Set.Set("addr:z", 1.5) })}, want: "validation"},
		{name: "value negative", req: request{gen: 2, epoch: epoch,
			delta: vector(func(d *prophet.Delta) { d.Set.Set("addr:z", -0.25) })}, want: "validation"},
		{name: "unsorted keys", req: request{gen: 2, epoch: epoch,
			delta: vector(func(*prophet.Delta) {}), mangle: rekey("addr:y", "addr:~")}, want: "validation"},
		{name: "duplicate keys", req: request{gen: 2, epoch: epoch,
			delta: vector(func(*prophet.Delta) {}), mangle: rekey("addr:y", "addr:z")}, want: "validation"},
		{name: "maxprop row above one", maxprop: true, req: request{gen: 2, epoch: epoch, delta: &maxprop.Delta{
			Rows:      sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{"z": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"evil": 1.5})}}),
			TotalRows: 2, TotalHomes: 1}}, want: "validation"},
		{name: "no knowledge delta", req: request{delta: honestVector}, want: "validation"},

		{name: "unknown epoch", req: request{gen: 2, epoch: epoch + 1, delta: honestVector}, want: "refused"},
		{name: "generation gap", req: request{gen: 3, epoch: epoch, delta: honestVector}, want: "refused"},
		{name: "absent key unchanged", req: request{gen: 2, epoch: epoch,
			delta: vector(func(d *prophet.Delta) { d.Total = 5 })}, want: "refused"},
		{name: "another policy's delta", req: request{gen: 2, epoch: epoch, delta: honestTable}, want: "refused"},
		{name: "maxprop absent row unchanged", maxprop: true, req: request{gen: 2, epoch: epoch,
			delta: &maxprop.Delta{TotalRows: 3, TotalHomes: 1}}, want: "refused"},
		{name: "maxprop absent home unchanged", maxprop: true, req: request{gen: 2, epoch: epoch,
			delta: &maxprop.Delta{TotalRows: 1, TotalHomes: 2}}, want: "refused"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base routing.Request = baseVector
			var honest routing.Delta = honestVector
			if tc.maxprop {
				base, honest = baseTable, honestTable
			}
			node := func() (*replica.Replica, *Server) {
				var policy routing.Policy = prophet.New(prophet.DefaultParams(), now, "addr:a")
				if tc.maxprop {
					policy = maxprop.New("a", 3, now, "addr:a")
				}
				a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: policy})
				srv := NewServer(a, 0)
				srv.Metrics = &obs.TransportMetrics{}
				return a, srv
			}
			a, srv := node()
			// send plays one connection from "evil" carrying one request to
			// srv and returns the server's verdict on it.
			send := func(srv *Server, r request) error {
				req := &replica.SyncRequest{TargetID: "evil", RoutingDelta: r.delta}
				if r.gen == 0 {
					req.Knowledge = vclock.NewKnowledge()
				} else {
					req.Delta = vclock.NewDelta(r.epoch, r.gen, nil)
				}
				body, err := wire.AppendSyncRequest(nil, req)
				if err != nil {
					t.Fatal(err)
				}
				if r.mangle != nil {
					mangled := r.mangle(body)
					if bytes.Equal(mangled, body) {
						t.Fatal("mangle changed nothing")
					}
					body = mangled
				}
				transcript := append(rawHello(helloMagic, protocolVersion, "evil"), rawFrame(frameSyncRequest, body)...)
				return srv.serveConn(replay(transcript))
			}
			established, err := wire.AppendSyncRequest(nil, &replica.SyncRequest{
				TargetID: "evil", Knowledge: vclock.NewKnowledge(), Epoch: epoch, Gen: 1, Routing: base,
			})
			if err != nil {
				t.Fatal(err)
			}
			establish := func(srv *Server) {
				srv.serveConn(replay(append(rawHello(helloMagic, protocolVersion, "evil"), rawFrame(frameSyncRequest, established)...))) //lint:allow errdiscard -- the transcript ends after leg 1, which is all this needs
			}
			establish(srv)
			if a.Stats().SyncsServed != 1 {
				t.Fatal("baseline frame was not served")
			}
			before, err := a.PolicyState()
			if err != nil {
				t.Fatal(err)
			}

			err = send(srv, tc.req)
			if got := errClass(err); (got == "validation") != (tc.want == "validation") {
				t.Errorf("server error %v is class %q, want %s", err, got, tc.want)
			}
			if got := srv.Metrics.ValidationRejected.Value(); (got == 1) != (tc.want == "validation") {
				t.Errorf("ValidationRejected = %d for a frame that should be %s", got, tc.want)
			}
			if a.Stats().SyncsServed != 1 {
				t.Error("the hostile request was served")
			}
			after, err := a.PolicyState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("the hostile request changed the policy's routing state")
			}

			// The baseline is where the honest frame left it: generation 2
			// still extends it, and its routing delta still fits and hands
			// the policy what it hands one that never saw the hostile frame.
			send(srv, request{gen: 2, epoch: epoch, delta: honest}) //lint:allow errdiscard -- the transcript ends after leg 1, which is all this needs
			if a.Stats().SyncsServed != 2 {
				t.Error("the honest delta after the hostile one was not served: the baseline moved")
			}
			after, _ = a.PolicyState()
			if bytes.Equal(before, after) {
				t.Error("the honest delta's routing state never reached the policy")
			}
			control, controlSrv := node()
			establish(controlSrv)
			send(controlSrv, request{gen: 2, epoch: epoch, delta: honest}) //lint:allow errdiscard -- as above
			if want, _ := control.PolicyState(); !bytes.Equal(after, want) {
				t.Error("the honest delta after the hostile one applied to a baseline the hostile one wrote")
			}
		})
	}
}
