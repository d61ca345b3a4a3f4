package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Counter.Value() = %d, want 5", got)
	}

	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Gauge.Value() = %d, want 7", got)
	}
}

func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil Counter should read 0")
	}

	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil Gauge should read 0")
	}

	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil Histogram should read 0")
	}
	if snap := h.Snapshot(); snap.Count != 0 || snap.Buckets != nil {
		t.Fatalf("nil Histogram snapshot = %+v, want zero", snap)
	}

	var l *SpanLog
	l.SetCapacity(4)
	l.Record(SyncSpan{Peer: "x"})
	if l.Total() != 0 || l.Snapshot() != nil {
		t.Fatal("nil SpanLog should be a no-op")
	}

	var tm *TransportMetrics
	var dm *DiscoveryMetrics
	var nm *NodeMetrics
	if snap := tm.Snapshot(); snap.EncountersServed != 0 || snap.EncounterMicros.Count != 0 {
		t.Fatal("nil TransportMetrics snapshot should be zero")
	}
	if snap := dm.Snapshot(); snap != (DiscoverySnapshot{}) {
		t.Fatal("nil DiscoveryMetrics snapshot should be zero")
	}
	if snap := nm.Snapshot(); snap.Spans != nil || snap.WAL != (WALSnapshot{}) {
		t.Fatal("nil NodeMetrics snapshot should be zero")
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	// Bucket bounds: 0 → bucket 0 (le 0); 1 → le 1; 2,3 → le 3; 4..7 → le 7.
	for _, v := range []int64{0, 1, 2, 3, 4, 7, -5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	if got := h.Sum(); got != 17 { // -5 clamps to 0
		t.Fatalf("Sum = %d, want 17", got)
	}
	snap := h.Snapshot()
	want := []HistogramBucket{
		{Le: 0, Count: 2}, // 0 and clamped -5
		{Le: 1, Count: 1},
		{Le: 3, Count: 2},
		{Le: 7, Count: 2},
	}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("Buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range snap.Buckets {
		if b != want[i] {
			t.Fatalf("Buckets[%d] = %+v, want %+v", i, b, want[i])
		}
	}
}

// TestTallyMatchesHistogram: a Tally buckets as a Histogram does, and its
// JSON is the histogram snapshot's, decoding back to the same tally.
func TestTallyMatchesHistogram(t *testing.T) {
	var h Histogram
	var tally Tally
	for _, v := range []int64{0, -5, 1, 2, 3, 4, 7, 1 << 62} {
		h.Observe(v)
		tally.Observe(v)
	}
	data, err := json.Marshal(tally)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(h.Snapshot())
	if string(data) != string(want) {
		t.Fatalf("tally encodes as %s, histogram as %s", data, want)
	}
	var back Tally
	if err := json.Unmarshal(data, &back); err != nil || back != tally {
		t.Fatalf("round trip: %+v (%v), want %+v", back, err, tally)
	}
}

func TestHistogramHugeValueClampsToLastBucket(t *testing.T) {
	var h Histogram
	h.Observe(1 << 62)
	snap := h.Snapshot()
	if len(snap.Buckets) != 1 {
		t.Fatalf("Buckets = %+v, want one bucket", snap.Buckets)
	}
	wantLe := int64(1)<<uint(histBuckets-1) - 1
	if snap.Buckets[0].Le != wantLe {
		t.Fatalf("Le = %d, want %d (last bucket)", snap.Buckets[0].Le, wantLe)
	}
}

func TestSpanLogRingWraparound(t *testing.T) {
	var l SpanLog
	l.SetCapacity(3)
	for i := 0; i < 5; i++ {
		l.Record(SyncSpan{ItemsSent: i})
	}
	if got := l.Total(); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(snap))
	}
	for i, want := range []int{2, 3, 4} { // oldest first
		if snap[i].ItemsSent != want {
			t.Fatalf("Snapshot[%d].ItemsSent = %d, want %d", i, snap[i].ItemsSent, want)
		}
	}
}

func TestSpanLogDefaultCapacity(t *testing.T) {
	var l SpanLog
	for i := 0; i < DefaultSpanCapacity+10; i++ {
		l.Record(SyncSpan{ItemsSent: i})
	}
	snap := l.Snapshot()
	if len(snap) != DefaultSpanCapacity {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), DefaultSpanCapacity)
	}
	if snap[0].ItemsSent != 10 {
		t.Fatalf("oldest retained = %d, want 10", snap[0].ItemsSent)
	}
}

func TestConcurrentUse(t *testing.T) {
	var n NodeMetrics
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n.Transport.BytesRead.Add(2)
				n.WAL.Records.Inc()
				n.Discovery.PeersLive.Add(1)
				n.Transport.EncounterMicros.Observe(int64(i))
				n.Transport.Spans.Record(SyncSpan{ItemsSent: i})
				_ = n.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := n.Snapshot()
	if snap.Transport.BytesRead != workers*perWorker*2 {
		t.Fatalf("BytesRead = %d, want %d", snap.Transport.BytesRead, workers*perWorker*2)
	}
	if snap.WAL.Records != workers*perWorker {
		t.Fatalf("WAL.Records = %d, want %d", snap.WAL.Records, workers*perWorker)
	}
	if snap.Discovery.PeersLive != workers*perWorker {
		t.Fatalf("Discovery.PeersLive = %d, want %d", snap.Discovery.PeersLive, workers*perWorker)
	}
	if snap.Transport.EncounterMicros.Count != workers*perWorker {
		t.Fatalf("EncounterMicros.Count = %d, want %d", snap.Transport.EncounterMicros.Count, workers*perWorker)
	}
	if got := n.Transport.Spans.Total(); got != workers*perWorker {
		t.Fatalf("Spans.Total = %d, want %d", got, workers*perWorker)
	}
}

func TestNodeSnapshotJSON(t *testing.T) {
	var n NodeMetrics
	n.Transport.EncountersDialed.Inc()
	n.WAL.Records.Add(3)
	n.Discovery.PeersLive.Set(1)
	n.Transport.Spans.Record(SyncSpan{
		Peer: "peer-1", Role: RoleDial, ItemsSent: 4, BytesOut: 128,
		DurationMicros: 1500,
	})

	data, err := json.Marshal(n.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded NodeSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if decoded.Transport.EncountersDialed != 1 {
		t.Fatalf("round-trip EncountersDialed = %d, want 1", decoded.Transport.EncountersDialed)
	}
	if decoded.WAL.Records != 3 {
		t.Fatalf("round-trip Records = %d, want 3", decoded.WAL.Records)
	}
	if len(decoded.Spans) != 1 || decoded.Spans[0].Peer != "peer-1" {
		t.Fatalf("round-trip Spans = %+v, want one span for peer-1", decoded.Spans)
	}

	// Key stability: the JSON schema is documented in README.md; the
	// replica and store sections are cmd/dtnnode's (TestMetricsKeySet).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	for _, key := range []string{"transport", "discovery", "wal", "spans"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("snapshot JSON missing %q key: %s", key, data)
		}
	}
}
