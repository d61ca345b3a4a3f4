// Allocation budgets for the two sync entry points, measured over the
// per-candidate functions they are built from (batch selection, request
// assembly): counts, not clocks, so an allocation added on the paths they
// exercise — a library call that starts allocating, an escape-analysis
// change — fails `make test`.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package replica

import (
	"testing"
)

// TestSyncAllocBudget pins allocs/op for the two sync entry points.
func TestSyncAllocBudget(t *testing.T) {
	src := newBenchSource(t, 1000)

	// MakeSyncRequest is two allocations by design: the request struct and
	// the O(1) copy-on-write knowledge clone header.
	req := benchRequest(1)
	makeAllocs := testing.AllocsPerRun(100, func() {
		if r := src.MakeSyncRequest(1); r == nil {
			t.Fatal("nil request")
		}
	})
	if makeAllocs > 2 {
		t.Errorf("MakeSyncRequest allocates %.1f/op, budget 2 (request struct + knowledge clone header)", makeAllocs)
	}

	// HandleSyncRequest at the paper's one-item encounter budget: the
	// bounded selector keeps batch assembly allocation-free per scanned
	// entry, so the cost is response assembly (the response, its item slice
	// and the selector's one-slot heap), not the 1000-entry scan.
	handleAllocs := testing.AllocsPerRun(100, func() {
		if resp := src.HandleSyncRequest(req); len(resp.Items) == 0 {
			t.Fatal("empty batch")
		}
	})
	if handleAllocs > 3 {
		t.Errorf("HandleSyncRequest(maxItems=1) allocates %.1f/op over a 1000-entry store, budget 3", handleAllocs)
	}
}

// TestSelectorAllocatesOnce pins the bounded selector's retained set to one
// allocation: at a 256-item budget over a 1000-entry store the heap is sized
// on the first offer, not grown by append-doubling, and the 256 transmitted
// transients are values, so the response's three allocations are the whole
// cost.
func TestSelectorAllocatesOnce(t *testing.T) {
	src := newBenchSource(t, 1000)
	req := benchRequest(256)
	allocs := testing.AllocsPerRun(100, func() {
		if resp := src.HandleSyncRequest(req); len(resp.Items) != 256 {
			t.Fatalf("batch of %d items, want 256", len(resp.Items))
		}
	})
	if allocs > 3 {
		t.Errorf("HandleSyncRequest(maxItems=256) allocates %.1f/op over a 1000-entry store, budget 3", allocs)
	}
}
