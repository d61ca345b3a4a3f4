// Allocation budgets for the two sync entry points, measured over the
// per-candidate functions they are built from (batch selection, request
// assembly), and for the in-process encounter that carries them: counts, not
// clocks, so an allocation added on the paths they exercise — a library call
// that starts allocating, an escape-analysis change — fails `make test`.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package replica

import (
	"testing"

	"replidtn/internal/routing/epidemic"
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

// TestEncounterAllocBudget pins the in-process exchange around the two sync
// entry points: a steady-state encounter (each side already knows everything
// the other holds) over a reliable link and over a link cut at zero items
// allocates only the two requests, two responses and two knowledge clone
// headers — the carrier closures that run each leg stay on the stack.
func TestEncounterAllocBudget(t *testing.T) {
	src := newBenchSource(t, 1000)
	dst := New(Config{ID: "tgt", OwnAddresses: []string{"addr:0"}, Policy: epidemic.New(64)})
	Encounter(src, dst, 0)
	for _, tc := range []struct {
		name string
		run  func() EncounterResult
	}{
		{"reliable", func() EncounterResult { return Encounter(src, dst, 0) }},
		{"cut at zero", func() EncounterResult { return EncounterLink(src, dst, Budget{}, Link{Cutoff: 0}) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if res := tc.run(); res.AtoB.Sent+res.BtoA.Sent != 0 || res.AtoB.Aborted || res.BtoA.Aborted {
				t.Fatalf("%s: steady-state encounter moved items: %+v", tc.name, res)
			}
		})
		if allocs > 6 {
			t.Errorf("%s steady-state encounter allocates %.1f/op over a 1000-entry store, budget 6", tc.name, allocs)
		}
	}
}
