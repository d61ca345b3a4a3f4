// Package emu is the emulation harness: it runs many DTN messaging endpoints
// (each backed by its own replica) in one process and drives them with an
// encounter trace and a message workload, reproducing the paper's
// experimental setup — every encounter performs two synchronizations with
// alternating source/target roles, e-mail users are distributed over the
// buses scheduled each day, and message delivery, delay, and stored-copy
// counts are recorded.
//
// Following the paper's model ("messages sent between users are routed
// through a network of vehicular nodes"), the replication hosts are the buses
// and a message from user u to user v injected on day d enters the network at
// u's bus for that day, addressed to v's bus for that day. This reproduces
// the paper's accounting exactly: the basic substrate keeps two copies per
// delivered message (sender bus, destination bus), and a message can miss its
// 12-hour deadline simply because the two buses never meet that day.
//
// One run replays the time-ordered schedule one event at a time: each event
// runs and lands in one step, on one run clock that every endpoint reads. A
// run owns all of its state, so independent runs may execute concurrently;
// the experiment drivers parallelise across runs, not inside one (DESIGN.md
// §8).
package emu

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"

	"replidtn/internal/fault"
	"replidtn/internal/item"
	"replidtn/internal/messaging"
	"replidtn/internal/metrics"
	"replidtn/internal/obs"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/trace"
	"replidtn/internal/vclock"
)

// PolicyFactory builds a routing policy for one node. now supplies the
// simulation clock; ownAddresses are the addresses homed on the node (its bus
// address). A nil factory runs the basic substrate (no DTN forwarding).
type PolicyFactory func(node vclock.ReplicaID, now func() int64, ownAddresses []string) routing.Policy

// Config configures one emulation run.
type Config struct {
	// Trace supplies encounters, messages, rosters, and assignments.
	Trace *trace.Trace
	// Policy builds each node's routing policy (nil = basic substrate).
	Policy PolicyFactory
	// ExtraBuses maps a bus to other buses whose addresses it adds to its
	// filter, volunteering to carry their messages (the §IV.B multi-address
	// filter experiments). Nil means own address only.
	ExtraBuses map[string][]string
	// MaxMessagesPerEncounter bounds the items exchanged per encounter
	// across both syncs (0 = unlimited) — the Fig. 9 bandwidth constraint.
	MaxMessagesPerEncounter int
	// MaxBytesPerEncounter bounds the encoded batch-item bytes per encounter
	// across both syncs (0 = unlimited) — a byte-granular bandwidth model.
	MaxBytesPerEncounter int64
	// MessageSize pads every injected message's payload to this many bytes
	// (0 = just the message ID), giving byte budgets something to meter.
	MessageSize int
	// RelayCapacity bounds relayed messages per node (0 = unlimited) — the
	// Fig. 10 storage constraint.
	RelayCapacity int
	// Eviction orders relayed messages for eviction under storage pressure;
	// nil selects FIFO (the paper's strategy).
	Eviction store.EvictionStrategy
	// MessageLifetime, when positive, bounds every injected message's
	// lifetime in seconds: expired messages stop being forwarded or
	// delivered, modeling deadline-bound DTN workloads.
	MessageLifetime int64
	// Faults configures deterministic fault injection over the encounter
	// schedule: dropped contacts, mid-sync link cutoffs (aborted
	// transactionally), and node crash-restarts that reboot the node from its
	// durable state (see DataBackend). Decisions are pure functions of
	// (Faults.Seed, encounter index), so faulted runs are reproducible. The
	// zero value disables every fault and leaves the run byte-identical to a
	// fault-free build.
	Faults fault.Config
	// DataBackend selects the persistence model crash-restarts exercise.
	// "" (the default) keeps all durable state across the crash instant: the
	// dying node's snapshot is restored straight into the rebooted one.
	// "wal" runs every node over an in-memory write-ahead log
	// (internal/persist/wal) that journals each mutation as it happens; a
	// crash then hard-kills the filesystem (unsynced bytes lost) and reboots
	// by WAL replay. Because the WAL's recovery contract is exactness, both
	// models must produce bit-identical results and event logs — which the
	// emulator-level differential test pins.
	DataBackend string
	// EventLog, when set, receives one CSV line per emulation event
	// (inject, encounter, deliver) for debugging and external analysis:
	//
	//	time,event,field1,field2,field3
	//
	// Writes are buffered for the duration of the run and flushed on return.
	EventLog io.Writer
	// Metrics, when set, aggregates replica-level sync/apply counters across
	// every emulated node into one obs.ReplicaMetrics. All counters are
	// atomic, so concurrent runs may share one sink; nil (the default)
	// skips instrumentation entirely, keeping the run byte-identical to an
	// uninstrumented build. The emulation Result is unaffected either way.
	Metrics *obs.ReplicaMetrics
	// StoreMetrics, when set, aggregates store occupancy gauges and the
	// eviction counter across every emulated node. Nil disables it.
	StoreMetrics *obs.StoreMetrics
	// SyncSummaries enables the compact knowledge summary protocol (delta
	// knowledge for recurring peers; see replica.Config.SyncSummaries) on
	// every emulated node. Delivery results are unchanged — the summary
	// protocol only shrinks the knowledge frames each sync ships, which
	// Result.KnowledgeBytes accounts.
	SyncSummaries bool
}

// Result is the outcome of one emulation run.
type Result struct {
	// Summary aggregates per-message deliveries.
	Summary *metrics.Summary
	// Encounters is the number of encounters processed.
	Encounters int
	// Syncs is the number of synchronizations performed: one per encounter
	// that was not dropped, plus its second leg when that leg ran.
	Syncs int
	// ItemsTransferred counts batch items moved over all syncs.
	ItemsTransferred int
	// BytesTransferred counts the encoded batch-item bytes of all syncs.
	BytesTransferred int64
	// Duplicates counts duplicate receipts (the substrate keeps this 0).
	Duplicates int
	// MeanKnowledgeEntries is the average knowledge size (base entries +
	// exceptions) across nodes at the end — the metadata-compactness check.
	MeanKnowledgeEntries float64
	// EncountersDropped counts encounters the fault plan suppressed entirely
	// (included in Encounters; zero without faults).
	EncountersDropped int
	// SyncsAborted counts synchronizations whose transfer was cut off
	// mid-batch and discarded transactionally (zero without faults).
	SyncsAborted int
	// ItemsWasted and BytesWasted count partial transfers that crossed the
	// link before a cutoff and were then discarded; both are already included
	// in ItemsTransferred/BytesTransferred (zero without faults).
	ItemsWasted int
	BytesWasted int64
	// Crashes counts node crash-restart events executed (zero without
	// faults).
	Crashes int
	// KnowledgeBytes is the encoded size of every knowledge frame shipped
	// across all syncs — exact frames, deltas, and fallback retries
	// alike. This is the per-encounter metadata cost the summary protocol
	// (Config.SyncSummaries) exists to shrink; the batch items are counted
	// separately in BytesTransferred.
	KnowledgeBytes int64
	// SummaryFallbacks counts syncs whose knowledge delta the source refused
	// and that needed the extra exact-knowledge round (zero unless
	// SyncSummaries is enabled).
	SummaryFallbacks int
}

// msgState tracks one workload message through the run.
type msgState struct {
	traceID     string
	sentAt      int64
	deliveredAt int64
	copiesAtDel int
	itemID      item.ID
}

// epState is one endpoint plus its write-ahead log and the log's in-memory
// filesystem, both set only under Config.DataBackend "wal".
type epState struct {
	ep    *messaging.Endpoint
	wal   *wal.DB
	walFS *wal.MemFS
}

// runner holds one run's state.
type runner struct {
	cfg    Config
	tr     *trace.Trace
	eps    map[string]*epState
	events []event
	// plan is the fault plan; nil disables fault injection entirely, leaving
	// the run byte-identical to a build without the fault layer.
	plan *fault.Plan
	// crashes holds the crash-restart events the plan scheduled; event.index
	// for evCrash events points into it.
	crashes []crashEvent

	// t is the run clock, set to the time of the event being stepped. Every
	// endpoint and policy reads it; only the event's own endpoints run, so
	// one clock serves them all.
	t int64
	// states holds per-message tracking, indexed like Trace.Messages.
	states []*msgState
	// byItem resolves delivered item IDs to message states.
	byItem map[item.ID]*msgState
	// copies is the network-wide live-copy count per item, updated by every
	// endpoint's OnCopies as it fires — the O(1) replacement for scanning
	// every endpoint store per delivery.
	copies map[item.ID]int
	// received buffers the current event's first-time receipts, so a
	// delivery's copy count is read once the whole encounter has run.
	received []item.ID

	log *bufio.Writer // buffered EventLog; nil when unset
	res *Result
}

// Run executes the emulation.
func Run(cfg Config) (*Result, error) {
	tr := cfg.Trace
	if tr == nil {
		return nil, fmt.Errorf("emu: config needs a trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("emu: %w", err)
	}

	r := newRunner(cfg, tr)
	if err := r.attachWALBackends(); err != nil {
		return nil, err
	}
	if cfg.EventLog != nil {
		r.log = bufio.NewWriterSize(cfg.EventLog, 64<<10)
	}
	var err error
	for i := range r.events {
		if err = r.step(&r.events[i]); err != nil {
			break
		}
	}
	if r.log != nil {
		r.log.Flush()
	}
	if err != nil {
		return nil, err
	}
	return r.finalize(), nil
}

func newRunner(cfg Config, tr *trace.Trace) *runner {
	r := &runner{
		cfg:    cfg,
		tr:     tr,
		eps:    make(map[string]*epState, len(tr.Buses)),
		plan:   fault.NewPlan(cfg.Faults),
		states: make([]*msgState, len(tr.Messages)),
		byItem: make(map[item.ID]*msgState, len(tr.Messages)),
		copies: make(map[item.ID]int, len(tr.Messages)),
		res:    &Result{},
	}
	r.events, r.crashes = buildEvents(tr, r.plan)
	for _, bus := range tr.Buses {
		r.eps[bus] = &epState{ep: r.newEndpoint(bus)}
	}
	return r
}

// now reads the run clock; every endpoint and policy is built with it.
func (r *runner) now() int64 { return r.t }

// newEndpoint builds the messaging endpoint for one bus, wired to the run
// clock, the copy table and the receipt buffer.
func (r *runner) newEndpoint(bus string) *messaging.Endpoint {
	node := vclock.ReplicaID(bus)
	own := []string{bus}
	var pol routing.Policy
	if r.cfg.Policy != nil {
		pol = r.cfg.Policy(node, r.now, own)
	}
	return messaging.NewEndpoint(messaging.Config{
		NodeID:               node,
		Addresses:            own,
		ExtraFilterAddresses: r.cfg.ExtraBuses[bus],
		Policy:               pol,
		RelayCapacity:        r.cfg.RelayCapacity,
		Eviction:             r.cfg.Eviction,
		Now:                  r.now,
		Metrics:              r.cfg.Metrics,
		StoreMetrics:         r.cfg.StoreMetrics,
		SyncSummaries:        r.cfg.SyncSummaries,
		// Both callbacks fire with the replica lock held, in mutation order.
		OnReceive: func(rcv messaging.Received) {
			r.received = append(r.received, rcv.Message.ID)
		},
		OnCopies: func(id item.ID, delta int) {
			if n := r.copies[id] + delta; n == 0 {
				delete(r.copies, id)
			} else {
				r.copies[id] = n
			}
		},
	})
}

// step runs one event against its endpoints and lands its effects in the
// result counters, the message states and the event log.
func (r *runner) step(ev *event) error {
	r.t, r.received = ev.time, r.received[:0]
	switch ev.kind {
	case evInject:
		return r.inject(ev)
	case evEncounter:
		r.encounter(ev)
	case evCrash:
		bus := r.crashes[ev.index].bus
		if err := r.crashRestart(bus); err != nil {
			return fmt.Errorf("emu: crash-restart %s: %w", bus, err)
		}
		r.res.Crashes++
		if r.log != nil {
			logCrash(r.log, ev.time, bus)
		}
	}
	return nil
}

// inject sends one workload message from its sender's bus for the day. A
// self-addressed (same bus) message is delivered during Send; it is recorded
// as an immediate single-copy delivery, not as a deliver event.
func (r *runner) inject(ev *event) error {
	m := r.tr.Messages[ev.index]
	day := trace.Day(m.Time)
	from, to := r.tr.Assignment[day][m.From], r.tr.Assignment[day][m.To]
	st := &msgState{traceID: m.ID, sentAt: m.Time, deliveredAt: -1}
	r.states[ev.index] = st
	sent, err := sendPadded(r.eps[from].ep, from, to, m.ID, r.cfg.MessageLifetime, r.cfg.MessageSize)
	if err != nil {
		return fmt.Errorf("emu: inject %s: %w", m.ID, err)
	}
	st.itemID = sent.ID
	r.byItem[sent.ID] = st
	if from == to {
		st.deliveredAt, st.copiesAtDel = ev.time, 1
	}
	if r.log != nil {
		logInject(r.log, ev.time, m.ID, from, to)
	}
	return nil
}

// encounter runs one encounter over a link the fault plan severs after
// Cutoff crossed items (negative: a reliable link), or drops it whole. An
// aborted leg's partial transfer is counted as wasted; the transactional
// discard in replica.EncounterLink guarantees the target's knowledge and
// store are untouched, so a later encounter resumes the exchange from
// scratch. Receipts resolve after both legs, so "copies at delivery" counts
// the whole encounter.
func (r *runner) encounter(ev *event) {
	e := r.tr.Encounters[ev.index]
	r.res.Encounters++
	dec := r.plan.Encounter(ev.index)
	if dec.Drop {
		// The contact never happens: it touches no replica state.
		r.res.EncountersDropped++
		if r.log != nil {
			logDrop(r.log, ev.time, e.A, e.B)
		}
		return
	}
	er := replica.EncounterLink(r.eps[e.A].ep.Replica(), r.eps[e.B].ep.Replica(), replica.Budget{
		Items: r.cfg.MaxMessagesPerEncounter,
		Bytes: r.cfg.MaxBytesPerEncounter,
	}, replica.Link{Cutoff: dec.Cutoff})
	r.res.Syncs += er.Legs
	moved, aborted, wasted := 0, 0, 0
	for _, sr := range [2]replica.SyncResult{er.AtoB, er.BtoA} {
		moved += sr.Sent
		r.res.ItemsTransferred += sr.Sent
		r.res.BytesTransferred += sr.SentBytes
		r.res.KnowledgeBytes += sr.KnowledgeBytes
		if sr.Fallback {
			r.res.SummaryFallbacks++
		}
		if sr.Aborted {
			aborted++
			wasted += sr.Sent
			r.res.ItemsWasted += sr.Sent
			r.res.BytesWasted += sr.SentBytes
		}
	}
	r.res.SyncsAborted += aborted
	if r.log != nil && aborted > 0 {
		logAbort(r.log, ev.time, e.A, e.B, wasted)
	}
	if r.log != nil && moved > 0 {
		logEncounter(r.log, ev.time, e.A, e.B, moved)
	}
	for _, id := range r.received {
		st := r.byItem[id]
		if st == nil || st.deliveredAt >= 0 {
			continue
		}
		st.deliveredAt, st.copiesAtDel = ev.time, r.copies[id]
		if r.log != nil {
			logDeliver(r.log, ev.time, st.traceID, st.deliveredAt-st.sentAt)
		}
	}
}

// attachWALBackends puts every endpoint behind a write-ahead log when
// Config.DataBackend selects one, and rejects unknown backend names.
func (r *runner) attachWALBackends() error {
	switch r.cfg.DataBackend {
	case "":
		return nil
	case "wal":
	default:
		return fmt.Errorf("emu: unknown data backend %q (have: \"\", wal)", r.cfg.DataBackend)
	}
	for _, bus := range r.tr.Buses {
		es := r.eps[bus]
		es.walFS = wal.NewMemFS()
		db, err := wal.Open(es.walFS, wal.Options{})
		if err != nil {
			return fmt.Errorf("emu: wal backend %s: %w", bus, err)
		}
		if _, err := db.Load(); !errors.Is(err, wal.ErrNoState) {
			return fmt.Errorf("emu: wal backend %s: fresh load: %v", bus, err)
		}
		if err := db.Attach(es.ep.Replica()); err != nil {
			return fmt.Errorf("emu: wal backend %s: %w", bus, err)
		}
		es.wal = db
	}
	return nil
}

// crashRestart models a node dying and rebooting at the current instant.
//
// By default all durable state survives the crash instant: the dying
// endpoint's snapshot is taken, a fresh endpoint is built the way a cold
// boot would build it, and the snapshot is restored into it. Both sides
// clone every entry and transient, and the dying replica is never used
// again, so the two share nothing. Under the "wal" backend the crash is
// harder: the endpoint's in-memory filesystem drops everything not fsynced
// and the reboot recovers by segment + log replay, exactly the dtnnode
// restart path. Either way, volatile state (a non-persistent policy's
// internals) is lost; knowledge, store contents, and persistent policy state
// survive, which is what carries the substrate's at-most-once guarantee
// across the restart. Restoring fires no delivery or copy callbacks: the
// node's live copies are unchanged by the reboot, so the run-global copy
// table stays exact.
func (r *runner) crashRestart(bus string) error {
	es := r.eps[bus]
	var snap *replica.Snapshot
	var err error
	if es.wal != nil {
		if err := es.wal.Err(); err != nil {
			return err
		}
		es.walFS.Crash()
		db, err := wal.Open(es.walFS, wal.Options{})
		if err != nil {
			return err
		}
		if snap, err = db.Load(); err != nil {
			return err
		}
		es.wal = db
	} else if snap, err = es.ep.Replica().Snapshot(); err != nil {
		return err
	}
	// The dying node's store contribution leaves the shared gauges before the
	// rebuilt node's restore re-adds it.
	es.ep.Replica().DetachStoreMetrics()
	ep := r.newEndpoint(bus)
	if err := ep.Replica().RestoreSnapshot(snap); err != nil {
		return err
	}
	if es.wal != nil {
		if err := es.wal.Attach(ep.Replica()); err != nil {
			return err
		}
	}
	es.ep = ep
	return nil
}

// The event-log line formats.

func logInject(w io.Writer, t int64, id, from, to string) {
	fmt.Fprintf(w, "%d,inject,%s,%s,%s\n", t, id, from, to)
}

func logDrop(w io.Writer, t int64, a, b string) {
	fmt.Fprintf(w, "%d,drop,%s,%s,\n", t, a, b)
}

func logAbort(w io.Writer, t int64, a, b string, wasted int) {
	fmt.Fprintf(w, "%d,abort,%s,%s,%d\n", t, a, b, wasted)
}

func logEncounter(w io.Writer, t int64, a, b string, moved int) {
	fmt.Fprintf(w, "%d,encounter,%s,%s,%d\n", t, a, b, moved)
}

func logDeliver(w io.Writer, t int64, id string, delay int64) {
	fmt.Fprintf(w, "%d,deliver,%s,%d,\n", t, id, delay)
}

func logCrash(w io.Writer, t int64, bus string) {
	fmt.Fprintf(w, "%d,crash,%s,,\n", t, bus)
}

// finalize assembles the Result after every event has run. CopiesAtEnd
// reads the maintained copy table — O(1) per message instead of a scan over
// every endpoint store.
func (r *runner) finalize() *Result {
	deliveries := make([]metrics.Delivery, len(r.states))
	for i, st := range r.states {
		deliveries[i] = metrics.Delivery{
			MsgID:            st.traceID,
			SentAt:           st.sentAt,
			DeliveredAt:      st.deliveredAt,
			CopiesAtDelivery: st.copiesAtDel,
			CopiesAtEnd:      r.copies[st.itemID],
		}
	}
	r.res.Summary = metrics.NewSummary(deliveries)

	totalKnow := 0
	for _, bus := range r.tr.Buses {
		ep := r.eps[bus].ep
		stats := ep.Replica().Stats()
		r.res.Duplicates += stats.Duplicates
		totalKnow += ep.Replica().Knowledge().Size()
	}
	if len(r.tr.Buses) > 0 {
		r.res.MeanKnowledgeEntries = float64(totalKnow) / float64(len(r.tr.Buses))
	}
	return r.res
}

// sendPadded sends a message whose payload is the trace ID padded to size.
func sendPadded(ep *messaging.Endpoint, fromBus, toBus, traceID string, lifetime int64, size int) (messaging.Message, error) {
	payload := []byte(traceID)
	if size > len(payload) {
		padded := make([]byte, size)
		copy(padded, payload)
		payload = padded
	}
	if lifetime > 0 {
		return ep.SendExpiring(fromBus, []string{toBus}, payload, lifetime)
	}
	return ep.Send(fromBus, []string{toBus}, payload)
}

// event kinds, processed in time order with injections before encounters and
// encounters before crash-restarts at the same instant (a node crashing "at"
// an encounter goes down right after the contact).
const (
	evInject = iota
	evEncounter
	evCrash
)

type event struct {
	time  int64
	kind  int
	index int // into Messages, Encounters, or runner.crashes
}

// crashEvent is one scheduled node crash-restart.
type crashEvent struct {
	time int64
	bus  string
}

// buildEvents merges injections, encounters, and any fault-plan crash events
// into one time-ordered schedule. Crash events derive deterministically from
// the plan's per-encounter decisions, so repeated runs build the identical
// schedule.
func buildEvents(tr *trace.Trace, plan *fault.Plan) ([]event, []crashEvent) {
	events := make([]event, 0, len(tr.Messages)+len(tr.Encounters))
	for i, m := range tr.Messages {
		events = append(events, event{time: m.Time, kind: evInject, index: i})
	}
	var crashes []crashEvent
	for i, e := range tr.Encounters {
		events = append(events, event{time: e.Time, kind: evEncounter, index: i})
		if plan == nil {
			continue
		}
		dec := plan.Encounter(i)
		if dec.CrashA {
			events = append(events, event{time: e.Time, kind: evCrash, index: len(crashes)})
			crashes = append(crashes, crashEvent{time: e.Time, bus: e.A})
		}
		if dec.CrashB {
			events = append(events, event{time: e.Time, kind: evCrash, index: len(crashes)})
			crashes = append(crashes, crashEvent{time: e.Time, bus: e.B})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return events[i].kind < events[j].kind
	})
	return events, crashes
}
