package replica

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/vclock"
)

// newBenchSource builds a source replica holding n items: every fourth item
// is addressed to the sync target (in-filter for the request), the rest are
// relay candidates selected by the epidemic policy.
func newBenchSource(b testing.TB, n int) *Replica {
	b.Helper()
	src := New(Config{
		ID:           "src",
		OwnAddresses: []string{"addr:src"},
		Policy:       epidemic.New(64),
	})
	for i := 0; i < n; i++ {
		dst := fmt.Sprintf("addr:%d", i%4)
		src.CreateItem(item.Metadata{
			Source:       "addr:src",
			Destinations: []string{dst},
			Kind:         "message",
		}, []byte("payload"))
	}
	return src
}

// benchRequest builds a sync request from an empty target: everything in the
// source store is a candidate.
func benchRequest(maxItems int) *SyncRequest {
	tgt := New(Config{
		ID:           "tgt",
		OwnAddresses: []string{"addr:0"},
		Policy:       epidemic.New(64),
	})
	req := tgt.MakeSyncRequest(maxItems)
	req.Knowledge = vclock.NewKnowledge()
	return req
}

// BenchmarkHandleSyncRequest measures batch assembly on the sync hot path at
// several store sizes, with the encounter budget unconstrained, at the
// paper's Fig. 9 bound of one item per sync and at bulk-first-contact's 256
// (dtnbench), for a target that knows
// nothing (every entry is a candidate: the full-walk case) and one that knows
// every version but the newest (the O(unknown) case: a peer that synced one
// message ago).
func BenchmarkHandleSyncRequest(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, maxItems := range []int{0, 1, 256} {
			for _, known := range []string{"none", "all-but-1"} {
				name := fmt.Sprintf("n=%d/maxItems=%d/known=%s", n, maxItems, known)
				b.Run(name, func(b *testing.B) {
					src := newBenchSource(b, n)
					req := benchRequest(maxItems)
					if known == "all-but-1" {
						req.Knowledge = src.Knowledge()
						src.CreateItem(item.Metadata{
							Source:       "addr:src",
							Destinations: []string{"addr:0"},
							Kind:         "message",
						}, []byte("payload"))
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						resp := src.HandleSyncRequest(req)
						if len(resp.Items) == 0 {
							b.Fatal("empty batch")
						}
					}
				})
			}
		}
	}
}

// BenchmarkMakeSyncRequest measures request construction — dominated by how
// the replica shares its knowledge with the request.
func BenchmarkMakeSyncRequest(b *testing.B) {
	src := newBenchSource(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if req := src.MakeSyncRequest(1); req == nil {
			b.Fatal("nil request")
		}
	}
}
