package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// Config is one invocation's settings.
type Config struct {
	// Seed generates every input; the same seed gives the same inputs.
	Seed int64
	// Seconds is the nominal length of a measured phase. Operation counts
	// are fixed multiples of it, so counts repeat exactly from run to run;
	// store sizes never depend on it.
	Seconds int
	// Dialers is hub-fanin's C, the number of concurrent closed-loop
	// dialers: the CPU count.
	Dialers int
	// TmpDir is where durable-small keeps its WAL directories.
	TmpDir string
	// SetupReps is how many times a workload is set up; setup_s is the
	// median.
	SetupReps int
	// Traced adds the traced pass and the layer metrics to the run.
	Traced bool
	// TraceOut, when set, receives the traced pass's spans as JSON lines.
	TraceOut io.Writer
	// scale shrinks store sizes and operation counts for the package test's
	// quick mode; every real run uses 1.
	scale float64
	// extraPrefill is added to a live workload's prefill. The traced pass
	// uses it to replay at the store size the measured phase had halfway
	// through, so that the two medians compare like with like.
	extraPrefill int
}

// scaled applies the quick-mode scale to a README size, keeping at least
// min.
func (c Config) scaled(full, min int) int {
	n := full
	if c.scale > 0 && c.scale < 1 {
		n = int(float64(full) * c.scale)
	}
	if n < min {
		n = min
	}
	return n
}

// ops turns a nominal rate into a fixed operation count for the configured
// length.
func (c Config) ops(perSecond int) int {
	return c.scaled(perSecond*c.Seconds, 60)
}

// Result is one run of one workload.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Attempted counts encounters plus output checks; Failed the ones that
	// failed. Correct means Failed is 0.
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	Metrics   metricSet `json:"metrics"`
	// Counts are the run's operation and sample counts.
	Counts map[string]int `json:"counts"`
	// Failures describes each failed operation class or output check.
	Failures []string `json:"failures,omitempty"`
	// Notes state what a reader needs beside the numbers (flush policy,
	// growth during the run).
	Notes []string `json:"notes,omitempty"`
}

func newResult(name string, cfg Config) *Result {
	return &Result{Workload: name, Seed: cfg.Seed, Metrics: metricSet{}, Counts: map[string]int{}}
}

// finish derives the failure metrics once every count is in.
func (res *Result) finish() {
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	res.Metrics.set("fail_ratio", float64(res.Failed)/float64(res.Attempted))
}

// liveWorkload sizes and builds one of the four live workloads.
type liveWorkload struct {
	name string
	// rate is the nominal encounters per second (all dialers together) the
	// fixed operation counts are derived from; see README.md "Sizing".
	rate     int
	maxItems int
	payload  int // bytes in every message body
	growth   int // entries one encounter adds to the serving store
	build    func(lw liveWorkload, cfg Config, tr *tracer) (world, error)
	notes    []string
}

// tracedShare is the traced pass's share of the measured phase's
// operations.
const tracedShare = 10

func liveTable() []liveWorkload {
	return []liveWorkload{
		{
			name: wlPair, rate: 360, payload: 256, growth: 2,
			build: func(lw liveWorkload, cfg Config, tr *tracer) (world, error) {
				return buildPair(cfg, pairSpec{
					prefill: cfg.scaled(20000, 100) + cfg.extraPrefill, history: cfg.scaled(64, 4),
					policy: "prophet", summaries: true, direct: 1, payload: lw.payload,
				}, tr)
			},
		},
		{
			name: wlHub, rate: 290, payload: 256, growth: 2,
			build: func(lw liveWorkload, cfg Config, _ *tracer) (world, error) {
				return buildHub(cfg, cfg.scaled(100000, 500)+cfg.extraPrefill, lw.payload)
			},
			notes: []string{"the hub's store grows by two messages per encounter during the run"},
		},
		{
			name: wlBulk, rate: 240, maxItems: 256, payload: 1024,
			build: func(lw liveWorkload, cfg Config, _ *tracer) (world, error) {
				return buildBulk(cfg, cfg.scaled(16000, 300), lw.payload, lw.maxItems, 64)
			},
		},
		{
			name: wlDurable, rate: 190, payload: 256, growth: 8,
			build: func(lw liveWorkload, cfg Config, tr *tracer) (world, error) {
				return buildPair(cfg, pairSpec{
					prefill: cfg.scaled(1000, 50) + cfg.extraPrefill, history: 0,
					policy: "spray", durable: true, direct: 2, thirdParty: 2, payload: lw.payload,
				}, tr)
			},
			notes: []string{
				"wal.Options defaults: fsync per mutation batch, memtable flush every 256 batches, compaction above 4 segments",
				"stores and segments grow deterministically during the run (16 entries per encounter across both nodes)",
				"fsync latency is the sandbox's virtual disk, not a device",
			},
		},
	}
}

// runLive runs one live workload: SetupReps set-ups, the measured phase over
// loopback TCP with tracing off, the output checks and, when asked, the
// traced pass on fresh nodes from the same seed.
func runLive(lw liveWorkload, cfg Config, dials *dialBudget) (*Result, error) {
	res := newResult(lw.name, cfg)
	res.Notes = lw.notes
	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil {
		return nil, err
	}

	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var w world
	setup, reps, err := repeatSetup(cfg, ref, func() error {
		var err error
		w, err = lw.build(lw, cfg, nil)
		return err
	}, func() error { return w.close() })
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", lw.name, err)
	}
	defer func() { w.close() }()

	perDialer := cfg.ops(lw.rate) / w.dialers()
	if err := dials.take(perDialer * w.dialers()); err != nil {
		return nil, err
	}
	before := snapshotCounters(w)
	ph := runPhase(w, perDialer, 12*time.Duration(cfg.Seconds)*time.Second, ref,
		func() *recorder { return &recorder{} },
		func(rec *recorder) meetFunc { return rec.tcpMeet })
	after := snapshotCounters(w)
	heap := liveHeapMB()
	runtime.KeepAlive(w)

	encounters := len(ph.encounters)
	res.Attempted = perDialer * w.dialers()
	res.Failed = ph.failed
	if ph.firstErr != nil {
		res.Failures = append(res.Failures, fmt.Sprintf("%d of %d encounters failed, first: %v", ph.failed, res.Attempted, ph.firstErr))
	}
	var failedChecks []string
	res.Attempted += w.check(encounters, &failedChecks)
	res.Counts["dialers"] = w.dialers()
	res.Counts["encounters"] = encounters
	res.Counts["encounter_samples"] = encounters
	res.Counts["send_samples"] = len(ph.sends)
	res.Counts["items_applied"] = ph.items
	_, listener := w.probePair()
	res.Counts["store_entries_at_end"], _, _ = listener.r.StoreLen()
	if encounters == 0 {
		res.Failed = res.Attempted
		res.Failures = append(res.Failures, failedChecks...)
		res.finish()
		return res, nil
	}

	m := res.Metrics
	n := float64(encounters)
	slow := ref.slowdown()
	m.setN("host.stream_us_per_mb", ref.microsPerMB(), ref.reads)
	m.setScaled("setup_s", setup, reps, 1/slow)
	var wireBytes, frames int64
	for _, rec := range ph.recs {
		s := rec.tm.Snapshot()
		wireBytes += s.BytesRead + s.BytesWritten
		frames += s.FramesRead + s.FramesWritten
	}
	m.setScaled("encounters_per_s", n/ph.wall.Seconds(), 0, slow)
	m.setScaled("items_per_s", float64(ph.items)/ph.wall.Seconds(), 0, slow)
	m.setScaled("encounter_p50_ms", millis(percentile(ph.encounters, 50)), encounters, 1/slow)
	m.setScaled("encounter_p95_ms", millis(percentile(ph.encounters, 95)), encounters, 1/slow)
	m.set("wire_bytes_per_item", float64(wireBytes)/float64(ph.items))
	m.setScaled("cpu_ms_per_encounter", millis(ph.cpu)/n, 0, 1/slow)
	m.set("heap_live_mb", heap)
	if len(ph.sends) > 0 {
		m.setN("send_p50_us", micros(percentile(ph.sends, 50)), len(ph.sends))
	}
	m.setN("transport.encounter_p99_ms", millis(percentile(ph.encounters, 99)), encounters)
	m.set("transport.frames_per_encounter", float64(frames)/n)
	m.set("transport.bytes_per_encounter", float64(wireBytes)/n)
	m.set("transport.dial_errors", float64(ph.dialErrors))
	d := after.minus(before)
	m.set("replica.fallback_rounds_per_encounter", float64(d.fallbacks)/n)
	m.set("replica.duplicates", float64(after.duplicates))
	if d.fsSyncs > 0 {
		created := len(ph.sends)
		m.set("disk_bytes_per_payload_byte", float64(d.fsBytes)/float64(lw.payload*(created+ph.items)))
		m.set("wal.fs_syncs_per_encounter", float64(d.fsSyncs)/n)
		m.set("wal.log_bytes_per_item", float64(d.logBytes)/float64(created+ph.items))
		m.set("wal.flushes", float64(d.flushes))
		m.set("wal.compactions", float64(d.compactions))
	}
	if pw, ok := w.(*pairWorld); ok && pw.spec.durable {
		ms, samples, checks, err := pw.recoverCheck(&failedChecks)
		if err != nil {
			return nil, fmt.Errorf("%s: recover: %w", lw.name, err)
		}
		res.Attempted += checks
		m.setN("recover_ms", ms, samples)
	}
	res.Failed += len(failedChecks)
	res.Failures = append(res.Failures, failedChecks...)

	if cfg.Traced {
		if err := tracedPass(lw, cfg, res, ph, perDialer*w.dialers()/tracedShare); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// repeatSetup sets a workload up cfg.SetupReps times — and, when that is
// more than once, again until a second has gone into it, up to 25
// times, because a set-up of a few milliseconds needs more than three
// samples for a steady median — and returns the median seconds of one
// set-up. The run uses the last one; discard (untimed, may be nil) releases
// each earlier one, a forced collection puts every repetition on the same
// heap, and a host reading precedes each.
func repeatSetup(cfg Config, ref *hostRef, setup, discard func() error) (seconds float64, reps int, err error) {
	var times []float64
	var total time.Duration
	budget := time.Duration(cfg.scaled(int(time.Second), 0))
	for len(times) < cfg.SetupReps || (cfg.SetupReps > 1 && total < budget && len(times) < 25) {
		if len(times) > 0 && discard != nil {
			if err := discard(); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		ref.read(refReadMB)
		start := time.Now()
		if err := setup(); err != nil {
			return 0, 0, err
		}
		took := time.Since(start)
		total += took
		times = append(times, took.Seconds())
	}
	return medianFloat(times), len(times), nil
}

// counters is the cumulative replica, WAL and filesystem activity of a
// world's long-lived peers.
type counters struct {
	fallbacks, duplicates                            int
	fsBytes, fsSyncs, logBytes, flushes, compactions int64
}

func snapshotCounters(w world) counters {
	var c counters
	for _, p := range w.peers() {
		st := p.r.Stats()
		c.fallbacks += st.SummaryFallbacks
		c.duplicates += st.Duplicates
		if p.fs != nil {
			c.fsBytes += p.fs.bytes.Load()
			c.fsSyncs += p.fs.syncs.Load()
			s := p.walm.Snapshot()
			c.logBytes += s.Bytes
			c.flushes += s.Flushes
			c.compactions += s.Compactions
		}
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		fallbacks: c.fallbacks - o.fallbacks, duplicates: c.duplicates - o.duplicates,
		fsBytes: c.fsBytes - o.fsBytes, fsSyncs: c.fsSyncs - o.fsSyncs, logBytes: c.logBytes - o.logBytes,
		flushes: c.flushes - o.flushes, compactions: c.compactions - o.compactions,
	}
}

// recoverReps is how many times recover_ms's recovery is timed.
const recoverReps = 5

// recoverCheck closes a durable pair's nodes, reopens each WAL directory
// recoverReps times and compares the recovered state with the live one. It
// returns the median milliseconds of one recovery (wal.Open + Load +
// RestoreSnapshot into a fresh node), the sample count and the checks made.
func (w *pairWorld) recoverCheck(failures *[]string) (float64, int, int, error) {
	var times []time.Duration
	checks := 0
	for _, p := range w.peers() {
		live, err := p.r.Snapshot()
		if err != nil {
			return 0, 0, 0, err
		}
		total, _, _ := p.r.StoreLen()
		liveKnow := p.r.Knowledge()
		if err := p.close(); err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < recoverReps; i++ {
			start := time.Now()
			osfs, err := wal.NewOSFS(p.dir)
			if err != nil {
				return 0, 0, 0, err
			}
			db, err := wal.Open(osfs, wal.Options{})
			if err != nil {
				return 0, 0, 0, err
			}
			snap, err := db.Load()
			if err != nil {
				return 0, 0, 0, err
			}
			back := w.newNode(string(p.r.ID()), groupAddr)
			if err := back.r.RestoreSnapshot(snap); err != nil {
				return 0, 0, 0, err
			}
			times = append(times, time.Since(start))
			if i > 0 {
				continue
			}
			checks += 3
			if got, _, _ := back.r.StoreLen(); got != total {
				*failures = append(*failures, fmt.Sprintf("%s: reopened store holds %d entries, live one %d", p.r.ID(), got, total))
			}
			if !back.r.Knowledge().Equal(liveKnow) {
				*failures = append(*failures, fmt.Sprintf("%s: reopened knowledge differs from the live one", p.r.ID()))
			}
			if diff := wal.DiffSnapshots(durableView(live), durableView(snap)); diff != "" {
				*failures = append(*failures, fmt.Sprintf("%s: reopened state differs from the live one: %s", p.r.ID(), diff))
			}
		}
	}
	return millis(median(times)), len(times), checks, nil
}

// durableView strips what the WAL documents as crash-volatile from a
// snapshot before comparison: the copy allowance a routing policy rewrites
// in place on stored entries while serving a sync (DESIGN.md §13; journaling
// it is ROADMAP item 4(b)).
func durableView(s *replica.Snapshot) *replica.Snapshot {
	out := *s
	out.Entries = make([]store.EntrySnapshot, len(s.Entries))
	for i, e := range s.Entries {
		if e.Transient.Has(item.FieldCopies) {
			t := e.Transient.Clone()
			delete(t, item.FieldCopies)
			e.Transient = t
		}
		out.Entries[i] = e
	}
	return &out
}

// tracedPass replays a share of the workload in process on fresh nodes from
// the same seed, single goroutine, recording one span per call into a
// layer, and fills in the layer metrics.
func tracedPass(lw liveWorkload, cfg Config, res *Result, tcp *phase, ops int) error {
	if ops < 30 {
		ops = 30
	}
	tr := newTracer(ops * 24)
	one := cfg
	one.Dialers = 1
	one.extraPrefill = lw.growth * (len(tcp.encounters) - ops) / 2
	w, err := lw.build(lw, one, tr)
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", lw.name, err)
	}
	defer func() { w.close() }()
	// Set-up ran its warm-up encounters and WAL checkpoint through the
	// tracer's filesystem hooks; the pass starts clean.
	tr.spans = tr.spans[:0]
	tr.cur = -1

	ph := runPhase(w, ops, 12*time.Duration(cfg.Seconds)*time.Second, nil,
		func() *recorder { return &recorder{tracer: tr} },
		func(*recorder) meetFunc { return tr.meet })
	res.Attempted += ops
	if ph.failed > 0 {
		res.Failed += ph.failed
		res.Failures = append(res.Failures, fmt.Sprintf("traced pass: %d of %d replayed encounters failed, first: %v", ph.failed, ops, ph.firstErr))
	}
	var failedChecks []string
	res.Attempted += w.check(len(ph.encounters), &failedChecks) + 1
	if cfg.TraceOut != nil {
		if err := tr.writeSpans(cfg.TraceOut, lw.name); err != nil {
			return err
		}
	}

	st := tr.stats()
	m := res.Metrics
	// Encounter layers: self time summed over both legs of an encounter,
	// then the median over encounters, so the rows add up to the root.
	for name, sp := range map[string]spanName{
		"replica.make_request_us": spanMakeRequest, "wire.encode_request_us": spanEncodeRequest,
		"wire.decode_request_us": spanDecodeRequest, "replica.handle_request_us": spanHandleRequest,
		"wire.encode_response_us": spanEncodeResponse, "wire.decode_response_us": spanDecodeResponse,
		"replica.apply_batch_us": spanApplyBatch,
	} {
		m.setN(name, micros(median(st.perEncounter[sp])), len(st.perEncounter[sp]))
	}
	// Calls made outside encounters or many times inside one: self time per
	// call.
	for name, sp := range map[string]spanName{
		"messaging.send_us": spanSend, "wal.fs_sync_us": spanFSSync, "wal.fs_write_us": spanFSWrite,
	} {
		if n := len(st.calls[sp]); n > 0 {
			m.setN(name, micros(median(st.calls[sp])), n)
		}
	}
	if len(st.calls[spanFSSync]) > 0 {
		worst := st.longest[spanSend]
		if st.longest[spanApplyBatch] > worst {
			worst = st.longest[spanApplyBatch]
		}
		m.set("wal.stall_max_ms", millis(worst))
	}
	handle := median(st.perEncounter[spanHandleRequest])
	// Each leg's serve scans the serving side's whole store.
	dialer, listener := w.probePair()
	scannedA, _, _ := dialer.StoreLen()
	scannedB, _, _ := listener.r.StoreLen()
	m.set("replica.handle_ns_per_stored_entry", float64(handle)/float64(scannedA+scannedB))
	m.set("wire.request_bytes", float64(tr.requestBytes)/float64(len(ph.encounters)))
	m.set("wire.response_bytes", float64(tr.responseBytes)/float64(len(ph.encounters)))

	// Roots alternate traced and untimed; both halves walk the same state.
	var traced, untimed []time.Duration
	for i, d := range ph.recs[0].encounters {
		if i%2 == 0 {
			traced = append(traced, d)
		} else {
			untimed = append(untimed, d)
		}
	}
	inProcess := median(traced)
	res.Counts["traced_encounters"] = len(traced)
	res.Counts["spans"] = len(tr.spans)
	m.setN("trace.overhead_ratio", float64(inProcess)/float64(median(untimed)), len(traced))
	m.set("trace.child_coverage", st.coverage)
	// Negative only when machine noise between the two passes exceeds the
	// socket's whole cost; it is reported as measured.
	m.set("transport.overhead_us", micros(percentile(tcp.encounters, 50)-inProcess))
	if st.childOverrun > 0 {
		failedChecks = append(failedChecks, fmt.Sprintf("%d spans shorter than their children", st.childOverrun))
	}
	res.Failed += len(failedChecks)
	for _, f := range failedChecks {
		res.Failures = append(res.Failures, "traced pass: "+f)
	}

	probeCalls(w, lw.maxItems, tr, m)
	snap, err := listener.r.Snapshot()
	if err != nil {
		return err
	}
	items := make([]*item.Item, len(snap.Entries))
	for i := range snap.Entries {
		items[i] = snap.Entries[i].Item
	}
	probeStructures(items, dialer.Knowledge(), m)
	return nil
}

// probeReps is how many calls an allocation or routing-codec probe makes.
const probeReps = 50

// probeCalls measures what spans cannot: allocations per call, and the
// routing-state codec on its own. It runs after the pass, on nodes about to
// be discarded, because each probe request is processed like a real one.
func probeCalls(w world, maxItems int, tr *tracer, m metricSet) {
	dialer, listener := w.probePair()
	req := dialer.MakeSyncRequest(maxItems)
	m.set("replica.handle_request_allocs", allocsPerCall(probeReps, func() { listener.r.HandleSyncRequest(req) }))
	if len(tr.lastResponse) > 0 {
		frame := tr.lastResponse
		m.set("wire.decode_response_allocs", allocsPerCall(probeReps, func() {
			if _, err := wire.DecodeSyncResponse(frame); err != nil {
				panic(err) // the frame decoded during the pass
			}
		}))
	}
	var buf []byte
	times := make([]time.Duration, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		out, err := wire.AppendRouting(buf[:0], req.Routing)
		times = append(times, time.Since(start))
		if err != nil {
			return
		}
		buf = out
	}
	m.setN("wire.encode_routing_us", micros(median(times)), len(times))
	m.set("wire.routing_bytes", float64(len(buf)))
}

// allocsPerCall returns the mean heap allocations of one call of fn. The
// benchmark is otherwise idle, so the process-wide count is fn's.
func allocsPerCall(n int, fn func()) float64 {
	var before, after runtime.MemStats
	fn() // warm caches outside the count
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return math.Round(float64(after.Mallocs-before.Mallocs) / float64(n))
}

// structureSweeps is how many full sweeps a structure probe times.
const structureSweeps = 5

// probeStructures times a standalone store holding the given items and the
// given knowledge answering for their versions: the two structures a serve
// scan walks, at the workload's size, outside any replica.
func probeStructures(items []*item.Item, know *vclock.Knowledge, m metricSet) {
	if len(items) == 0 {
		return
	}
	n := float64(len(items))
	s := store.New(0)
	start := time.Now()
	for _, it := range items {
		s.Put(it, nil, false, false)
	}
	m.set("store.put_ns", float64(time.Since(start))/n)

	var ranges, contains []time.Duration
	known := 0
	for i := 0; i < structureSweeps; i++ {
		start = time.Now()
		s.Range(func(*store.Entry) bool { return true })
		ranges = append(ranges, time.Since(start))
		start = time.Now()
		for _, it := range items {
			if know.Contains(it.Version) {
				known++
			}
		}
		contains = append(contains, time.Since(start))
	}
	runtime.KeepAlive(known)
	m.setN("store.range_ns_per_entry", float64(median(ranges))/n, structureSweeps)
	m.setN("vclock.contains_ns", float64(median(contains))/n, structureSweeps)
	m.set("vclock.knowledge_entries", float64(know.Size()))
	m.set("vclock.knowledge_wire_bytes", float64(know.WireSize()))
}

// dialBudget keeps one invocation's TCP dials under a bound, so that
// connections lingering in TIME_WAIT cannot exhaust loopback's ephemeral
// ports and turn into encounter failures.
type dialBudget struct{ used int }

const maxDialsPerInvocation = 25000

func (b *dialBudget) take(n int) error {
	if b.used+n > maxDialsPerInvocation {
		return fmt.Errorf("dtnbench: %d dials planned on top of %d would pass the %d-per-invocation bound; split the runs over several invocations", n, b.used, maxDialsPerInvocation)
	}
	b.used += n
	return nil
}
