// Package obs is the node observability subsystem: atomic counters, gauges,
// and histograms with a snapshot API, plus lightweight sync-span tracing for
// live encounters. It exists so the live path (cmd/dtnnode, transport,
// discovery, the WAL) can be inspected while running — operational DTN
// implementations treat node introspection as table stakes.
//
// Design constraints, in priority order:
//
//   - Disabled means free. Only transport, discovery and the WAL take a
//     metrics sink; each takes an optional pointer, a nil pointer is a
//     no-op, and the individual metric types are additionally safe to use
//     through nil receivers. A replica keeps no sink: its one ledger is
//     replica.Stats, counted under its own lock and read on demand.
//   - Deterministic core stays deterministic. obs itself is part of the
//     dtnlint determinism scope: it never reads the wall clock, ambient
//     randomness, or the environment. Anything time-shaped (span start
//     times, durations) is supplied by the caller — packages outside the
//     deterministic core (transport, cmd/dtnnode) read their own clocks.
//   - Stdlib only, like the rest of the module (DESIGN.md §10).
//
// Concurrency: all metric types but Tally are safe for concurrent use.
// Counters, gauges, and histograms are lock-free atomics; the span log takes
// a short mutex per record; a Tally is a plain value its owner guards.
// Snapshots are consistent per metric, not across metrics (a snapshot taken
// mid-encounter may show the bytes counter ahead of the encounter counter),
// which is the usual contract for runtime introspection.
package obs

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; methods on a nil receiver are no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (callers pass n >= 0; Counter does not
// enforce monotonicity, it just never decrements on its own).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value: it can be set outright or moved by
// deltas. The zero value is ready to use; methods on a nil receiver are
// no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of power-of-two histogram buckets: bucket 0
// holds the value 0 and bucket b holds values in [2^(b-1), 2^b - 1]. 40
// buckets cover up to ~5.5e11 — about 6 days in microseconds or 512 GiB in
// bytes, comfortably past anything a node records.
const histBuckets = 40

// Histogram aggregates non-negative int64 observations (durations in
// microseconds, sizes in bytes, batch item counts) into power-of-two
// buckets. The zero value is ready to use; methods on a nil receiver are
// no-ops. Observations are lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values are clamped to 0.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucket(v)].Add(1)
}

// bucket returns the bucket a non-negative value falls in.
func bucket(v int64) int {
	return min(bits.Len64(uint64(v)), histBuckets-1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramBucket is one non-empty histogram bucket in a snapshot: Count
// observations were <= Le (and greater than the previous bucket's Le).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Only non-empty buckets are included, in
// ascending bound order. A nil receiver yields a zero snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	t := Tally{Count: h.count.Load(), Sum: h.sum.Load()}
	for b := range t.Buckets {
		t.Buckets[b] = h.buckets[b].Load()
	}
	return t.Snapshot()
}

// Tally is a Histogram as a plain value, for a ledger its owner guards with
// its own lock: the same buckets, no atomics, and copied whole by assignment.
// It encodes to JSON as its Snapshot.
type Tally struct {
	Count   int64
	Sum     int64
	Buckets [histBuckets]int64
}

// Observe records one value. Negative values are clamped to 0.
func (t *Tally) Observe(v int64) {
	v = max(v, 0)
	t.Count++
	t.Sum += v
	t.Buckets[bucket(v)]++
}

// Snapshot lists the non-empty buckets in ascending bound order.
func (t *Tally) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Count: t.Count, Sum: t.Sum}
	for b, n := range t.Buckets {
		if n == 0 {
			continue
		}
		le := int64(0)
		if b > 0 {
			le = int64(1)<<uint(b) - 1
		}
		snap.Buckets = append(snap.Buckets, HistogramBucket{Le: le, Count: n})
	}
	return snap
}

// MarshalJSON encodes the tally as its Snapshot.
func (t Tally) MarshalJSON() ([]byte, error) { return json.Marshal(t.Snapshot()) }

// UnmarshalJSON decodes what MarshalJSON encodes.
func (t *Tally) UnmarshalJSON(data []byte) error {
	var snap HistogramSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	*t = Tally{Count: snap.Count, Sum: snap.Sum}
	for _, b := range snap.Buckets {
		t.Buckets[bucket(b.Le)] += b.Count
	}
	return nil
}
