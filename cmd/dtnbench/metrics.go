package main

import (
	"sort"
	"time"
)

// The five workloads. See README.md for shapes and for why each exists.
const (
	wlPair    = "pair-recurring"
	wlHub     = "hub-fanin"
	wlBulk    = "bulk-first-contact"
	wlDurable = "durable-small"
	wlEmu     = "emu-paper"
)

var (
	allWorkloads  = []string{wlPair, wlHub, wlBulk, wlDurable, wlEmu}
	liveWorkloads = []string{wlPair, wlHub, wlBulk, wlDurable}
)

// metricDef declares one reported metric. The table below is the single
// source for what a run must emit, what BENCHMARK.json lists, and what
// -compare judges; the package test checks all three against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression. Zero on
	// layer metrics, which explain a change but do not gate it.
	Bound float64
	// EndToEnd marks the metrics a user of the system sees. Those reported
	// by every workload form BENCHMARK.json's end_to_end list; the rest
	// (and every layer metric) form its per_layer list, because the driver
	// contract wants every end_to_end metric from every workload.
	EndToEnd bool
	// Workloads that report the metric; elsewhere it reads 0 ("the layer
	// did no work here").
	Workloads []string
}

// anyIncrease is fail_ratio's bound: it is 0 on a healthy run, so every
// increase is a regression.
const anyIncrease = -1

var metricDefs = []metricDef{
	// End to end, every workload. On emu-paper the encounter metrics are
	// the emulation's: emulated encounters per wall second, items moved by
	// emulated syncs, wall ms per emulated encounter over the 15 runs of a
	// pass (median and nearest-rank p95), and the emulator's own payload +
	// knowledge byte accounting per item.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "encounters_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "encounter_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "encounter_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "wire_bytes_per_item", Unit: "B/item", Better: "lower", Bound: 0.01, EndToEnd: true, Workloads: allWorkloads},
	{Name: "cpu_ms_per_encounter", Unit: "ms", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: allWorkloads},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.10, EndToEnd: true, Workloads: allWorkloads},
	// End to end, some workloads only.
	{Name: "send_p50_us", Unit: "us", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: []string{wlPair, wlHub, wlDurable}},
	{Name: "disk_bytes_per_payload_byte", Unit: "B/B", Better: "lower", Bound: 0.01, EndToEnd: true, Workloads: []string{wlDurable}},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25, EndToEnd: true, Workloads: []string{wlDurable}},
	{Name: "emu_encounters_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, EndToEnd: true, Workloads: []string{wlEmu}},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: anyIncrease, EndToEnd: true, Workloads: allWorkloads},

	// the host, and the end-to-end timings as measured on it (hostref.go)
	{Name: "host.stream_us_per_mb", Unit: "us/MB", Better: "lower", Workloads: allWorkloads},
	{Name: "raw.setup_s", Unit: "s", Better: "lower", Workloads: allWorkloads},
	{Name: "raw.encounters_per_s", Unit: "1/s", Better: "higher", Workloads: allWorkloads},
	{Name: "raw.items_per_s", Unit: "items/s", Better: "higher", Workloads: allWorkloads},
	{Name: "raw.encounter_p50_ms", Unit: "ms", Better: "lower", Workloads: allWorkloads},
	{Name: "raw.encounter_p95_ms", Unit: "ms", Better: "lower", Workloads: allWorkloads},
	{Name: "raw.cpu_ms_per_encounter", Unit: "ms", Better: "lower", Workloads: allWorkloads},
	// transport
	{Name: "transport.overhead_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "transport.encounter_p99_ms", Unit: "ms", Better: "lower", Workloads: liveWorkloads},
	{Name: "transport.frames_per_encounter", Unit: "count", Better: "lower", Workloads: liveWorkloads},
	{Name: "transport.bytes_per_encounter", Unit: "B", Better: "lower", Workloads: liveWorkloads},
	{Name: "transport.dial_errors", Unit: "count", Better: "lower", Workloads: liveWorkloads},
	// wire
	{Name: "wire.encode_request_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.decode_request_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.encode_response_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.decode_response_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.encode_routing_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.request_bytes", Unit: "B", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.routing_bytes", Unit: "B", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.response_bytes", Unit: "B", Better: "lower", Workloads: liveWorkloads},
	{Name: "wire.decode_response_allocs", Unit: "allocs", Better: "lower", Workloads: liveWorkloads},
	// replica
	{Name: "replica.make_request_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.handle_request_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.handle_ns_per_stored_entry", Unit: "ns", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.apply_batch_us", Unit: "us", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.handle_request_allocs", Unit: "allocs", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.fallback_rounds_per_encounter", Unit: "count", Better: "lower", Workloads: liveWorkloads},
	{Name: "replica.duplicates", Unit: "count", Better: "lower", Workloads: allWorkloads},
	// store, vclock: a standalone structure of the workload's size
	{Name: "store.range_ns_per_entry", Unit: "ns", Better: "lower", Workloads: allWorkloads},
	{Name: "store.put_ns", Unit: "ns", Better: "lower", Workloads: allWorkloads},
	{Name: "vclock.contains_ns", Unit: "ns", Better: "lower", Workloads: allWorkloads},
	{Name: "vclock.knowledge_entries", Unit: "count", Better: "lower", Workloads: allWorkloads},
	{Name: "vclock.knowledge_wire_bytes", Unit: "B", Better: "lower", Workloads: allWorkloads},
	// messaging
	{Name: "messaging.send_us", Unit: "us", Better: "lower", Workloads: []string{wlPair, wlHub, wlDurable}},
	// wal
	{Name: "wal.fs_sync_us", Unit: "us", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.fs_write_us", Unit: "us", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.fs_syncs_per_encounter", Unit: "count", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.log_bytes_per_item", Unit: "B/item", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.flushes", Unit: "count", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.compactions", Unit: "count", Better: "lower", Workloads: []string{wlDurable}},
	{Name: "wal.stall_max_ms", Unit: "ms", Better: "lower", Workloads: []string{wlDurable}},
	// routing, emu
	{Name: "routing.cimbiosys.emu_run_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "routing.prophet.emu_run_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "routing.spray.emu_run_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "routing.epidemic.emu_run_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "routing.maxprop.emu_run_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "emu.run_s.unconstrained", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "emu.run_s.bandwidth", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "emu.run_s.storage", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "emu.syncs_per_s", Unit: "1/s", Better: "higher", Workloads: []string{wlEmu}},
	{Name: "emu.items_transferred", Unit: "count", Better: "lower", Workloads: []string{wlEmu}},
	{Name: "emu.trace_gen_s", Unit: "s", Better: "lower", Workloads: []string{wlEmu}},
	// the traced pass itself
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Workloads: liveWorkloads},
	{Name: "trace.child_coverage", Unit: "ratio", Better: "higher", Workloads: liveWorkloads},
}

// everywhere reports whether the metric is emitted by all workloads.
func (d metricDef) everywhere() bool { return len(d.Workloads) == len(allWorkloads) }

// driverEndToEnd reports whether the metric belongs in BENCHMARK.json's
// end_to_end list: a user-visible metric every workload reports, and never 0
// (which rules out fail_ratio; the result line's failed/attempted carries
// it).
func (d metricDef) driverEndToEnd() bool {
	return d.EndToEnd && d.everywhere() && d.Bound > 0
}

func (d metricDef) reportedOn(workload string) bool {
	for _, w := range d.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func findMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of observations behind a median or percentile.
	Samples int `json:"samples,omitempty"`
}

// metricSet collects a run's metrics, taking each unit from metricDefs.
type metricSet map[string]Metric

func (m metricSet) set(name string, v float64) { m.setN(name, v, 0) }

func (m metricSet) setN(name string, v float64, samples int) {
	d, ok := findMetric(name)
	if !ok {
		panic("dtnbench: undeclared metric " + name)
	}
	m[name] = Metric{Value: v, Unit: d.Unit, Samples: samples}
}

// setScaled records an end-to-end timing or rate twice: as measured under
// raw.<name>, and under name scaled to the nominal host — by 1/slowdown for
// a time, by the slowdown for a rate (hostref.go).
func (m metricSet) setScaled(name string, v float64, samples int, factor float64) {
	m.setN("raw."+name, v, samples)
	m.setN(name, v*factor, samples)
}

// percentile returns the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return percentile(s, 50)
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
