package replica

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// newBenchTarget builds a summaries-capable replica whose knowledge spans
// creators×perCreator versions plus excs exceptions — the ≥10k-version shape
// where the knowledge frame, not the item batch, dominates encounter bytes.
func newBenchTarget(b *testing.B, summaries bool, creators, perCreator, excs int) *Replica {
	b.Helper()
	r := New(Config{
		ID: "tgt", OwnAddresses: []string{"addr:tgt"},
		SyncSummaries: summaries,
	})
	for c := 0; c < creators; c++ {
		id := vclock.ReplicaID(fmt.Sprintf("bus%03d", c))
		for s := 1; s <= perCreator; s++ {
			r.know.Add(vclock.Version{Replica: id, Seq: uint64(s)})
		}
	}
	// Exceptions: versions two above each creator's contiguous prefix, so
	// they can never compact into the base.
	for e := 0; e < excs; e++ {
		id := vclock.ReplicaID(fmt.Sprintf("bus%03d", e%creators))
		r.know.Add(vclock.Version{Replica: id, Seq: uint64(perCreator + 2 + e/creators)})
	}
	return r
}

// BenchmarkKnowledgeFrame measures the per-sync knowledge frame each request
// representation ships at 10k+ known versions: the exact frame and the delta
// a recurring pair settles into. wireB/frame is the encoded frame size the
// transport pays per sync — the number BENCH_sync.json records and the ≥5×
// reduction criterion reads.
func BenchmarkKnowledgeFrame(b *testing.B) {
	const (
		creators   = 200
		perCreator = 50
		excs       = 1000
	)

	b.Run("full", func(b *testing.B) {
		r := newBenchTarget(b, false, creators, perCreator, excs)
		var wire int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := r.MakeSyncRequest(0)
			wire += req.KnowledgeWireBytes()
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wireB/frame")
	})

	// full-excheavy is the exact frame at an exception-dominated shape, where
	// each exception costs its own delta-varint-packed bytes.
	b.Run("full-excheavy", func(b *testing.B) {
		r := newBenchTarget(b, false, 20, perCreator, 9000)
		var wire int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := r.MakeSyncRequest(0)
			wire += req.KnowledgeWireBytes()
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wireB/frame")
	})

	b.Run("delta", func(b *testing.B) {
		// First contact is a tagged full frame, which establishes the
		// frontier. Thereafter each sync ships only what the replica learned
		// since — here one new own version per encounter, the steady state of
		// a recurring pair.
		r := newBenchTarget(b, true, creators, perCreator, excs)
		r.MakeSummaryRequest("peer", 0)
		var wire int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.CreateItem(item.Metadata{
				Source: "addr:tgt", Destinations: []string{"addr:peer"}, Kind: "message",
			}, nil)
			req := r.MakeSummaryRequest("peer", 0)
			if req.Delta == nil {
				b.Fatal("expected a delta frame")
			}
			wire += req.KnowledgeWireBytes()
		}
		b.ReportMetric(float64(wire)/float64(b.N), "wireB/frame")
	})
}

// TestKnowledgeFrameReduction pins the acceptance criterion outside the
// benchmark loop: at 10k+ known versions, the steady-state delta must shrink
// the knowledge frame at least 5× against the exact encoding.
func TestKnowledgeFrameReduction(t *testing.T) {
	r := New(Config{ID: "tgt", OwnAddresses: []string{"addr:tgt"}, SyncSummaries: true})
	for c := 0; c < 200; c++ {
		id := vclock.ReplicaID(fmt.Sprintf("bus%03d", c))
		for s := 1; s <= 50; s++ {
			r.know.Add(vclock.Version{Replica: id, Seq: uint64(s)})
		}
		for e := 0; e < 5; e++ {
			r.know.Add(vclock.Version{Replica: id, Seq: uint64(52 + e)})
		}
	}
	full := int64(r.know.WireSize())
	// Deltas require an exact baseline at the source, which only a tagged
	// full frame establishes — first contact sends that frame.
	if first := r.MakeSummaryRequest("first-contact", 0); first.Knowledge == nil || first.Epoch == 0 {
		t.Fatal("expected a tagged full frame on first contact")
	}
	r.CreateItem(item.Metadata{
		Source: "addr:tgt", Destinations: []string{"addr:p"}, Kind: "message",
	}, nil)
	deltaReq := r.MakeSummaryRequest("first-contact", 0)
	if deltaReq.Delta == nil {
		t.Fatal("expected delta on second contact")
	}
	if dw := deltaReq.KnowledgeWireBytes(); dw <= 0 || dw*5 > full {
		t.Errorf("delta frame %dB vs full %dB: reduction below 5×", dw, full)
	}
}
