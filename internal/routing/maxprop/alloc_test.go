// Allocation budgets for MaxProp's decisions: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package maxprop

import (
	"testing"

	"replidtn/internal/routing"
)

// TestPathTreeRebuildAllocs: a rebuild after the first reuses the tree's
// distance table and heap, so it allocates nothing.
func TestPathTreeRebuildAllocs(t *testing.T) {
	const n = 26
	p := fleet(n, 25)[0]
	p.buildTree()
	builds := p.builds
	if allocs := testing.AllocsPerRun(20, p.buildTree); allocs != 0 {
		t.Errorf("a tree rebuild on a full %d-node table allocates %v times, want 0", n, allocs)
	}
	if p.builds == builds || len(p.dist) != n {
		t.Fatalf("the measured runs built %d trees spanning %d nodes", p.builds-builds, len(p.dist))
	}
}

// TestServeFromBuiltTreeAllocs: serving from a built tree allocates
// nothing.
func TestServeFromBuiltTreeAllocs(t *testing.T) {
	const n = 64
	p := fleet(n, 4)[0]
	cands := candidates(n, 1000)
	p.ToSend(cands[0], routing.Target{})
	if allocs := testing.AllocsPerRun(10, func() {
		for _, e := range cands {
			p.ToSend(e, routing.Target{})
		}
	}); allocs != 0 {
		t.Errorf("serving from a built tree allocates %v times per 1000 candidates, want 0", allocs)
	}
}

// TestGenerateReqAllocs: once the replica gives a request back, the table
// is unshared again, so the next GenerateReq re-stamps it in place, shares
// it and fills the request given back, copying the homes into that
// request's array: it allocates nothing, on a 256-node table as on a
// 26-node one.
func TestGenerateReqAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		p := fleet(n, 4)[0]
		p.Release(p.GenerateReq())
		return testing.AllocsPerRun(20, func() { p.Release(p.GenerateReq()) })
	}
	if small, large := allocs(26), allocs(256); small != 0 || large != 0 {
		t.Errorf("GenerateReq allocates %v times at 26 nodes, %v at 256; want 0", small, large)
	}
}
