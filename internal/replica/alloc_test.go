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
	"fmt"
	"runtime"
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
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

	// The same from a basic source, whose every entry is filed under its
	// destination: the walk is the target's address lookup, which iterates
	// the filter and takes its closures on the stack.
	basic := New(Config{ID: "basic", OwnAddresses: []string{"addr:basic"}})
	for i := 0; i < 1000; i++ {
		basic.CreateItem(item.Metadata{
			Source: "addr:basic", Destinations: []string{fmt.Sprintf("addr:%d", i%4)}, Kind: "message",
		}, []byte("payload"))
	}
	basicAllocs := testing.AllocsPerRun(100, func() {
		if resp := basic.HandleSyncRequest(req); len(resp.Items) != 1 {
			t.Fatalf("batch of %d items, want 1", len(resp.Items))
		}
	})
	if basicAllocs > 3 {
		t.Errorf("basic HandleSyncRequest(maxItems=1) allocates %.1f/op over a 1000-entry store, budget 3", basicAllocs)
	}
	// A source whose policy withholds 750 of its 1000 entries at every serve
	// (PROPHET, which knows nothing of the target): the buffer the walk keeps
	// them in for refiling is reused, so it allocates nothing once warm.
	withheld := New(Config{ID: "prophet", OwnAddresses: []string{"addr:p"}, Policy: prophet.New(prophet.DefaultParams(), func() int64 { return 0 }, "addr:p")})
	for i := 0; i < 1000; i++ {
		withheld.CreateItem(item.Metadata{
			Source: "addr:p", Destinations: []string{fmt.Sprintf("addr:%d", i%4)}, Kind: "message",
		}, []byte("payload"))
	}
	withheld.HandleSyncRequest(req)
	if allocs := testing.AllocsPerRun(100, func() { withheld.HandleSyncRequest(req) }); allocs > 3 {
		t.Errorf("HandleSyncRequest(maxItems=1) withholding 750 entries allocates %.1f/op, budget 3", allocs)
	}
	// And for a target whose filter holds 17 addresses, the widest of Fig. 5.
	wide := *req
	addrs := filter.NewAddresses("addr:0")
	for i := 0; i < 16; i++ {
		addrs.Add(fmt.Sprintf("addr:far%d", i))
	}
	wide.Filter = addrs
	if allocs := testing.AllocsPerRun(100, func() { basic.HandleSyncRequest(&wide) }); allocs > 3 {
		t.Errorf("basic HandleSyncRequest(maxItems=1) for a 17-address filter allocates %.1f/op, budget 3", allocs)
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

// TestMaxPropEncounterAllocBudget pins a steady-state MaxProp encounter with
// summaries off. Each pull gives its request back when its sync ends, so the
// next request re-stamps the table in place and shares the home map, and the
// partner's state merges into both in place: no whole-table or whole-homes
// copy. The encounter allocates as often on a 256-node table as on a 26-node
// one — 10 times: per pull the request, its knowledge clone header and
// MaxProp state, the response, and the source's new own row — and fewer
// bytes than one copy of the larger table (56 B a row).
func TestMaxPropEncounterAllocBudget(t *testing.T) {
	measure := func(n int) (allocs float64, bytes uint64) {
		var clock int64
		now := func() int64 { return clock }
		id := func(i int) vclock.ReplicaID { return vclock.ReplicaID(fmt.Sprintf("n%03d", i)) }
		ps := make([]*maxprop.Policy, n)
		for i := range ps {
			ps[i] = maxprop.New(id(i), 0, now, fmt.Sprintf("addr:%03d", i))
		}
		for k := 0; k < 4*n; k++ { // each node meets the next four
			i, j := k%n, (k%n+1+k/n)%n
			clock++
			ps[j].ProcessReq(id(i), ps[i].GenerateReq())
			ps[i].ProcessReq(id(j), ps[j].GenerateReq())
		}
		a := New(Config{ID: id(0), OwnAddresses: []string{"addr:000"}, Policy: ps[0]})
		b := New(Config{ID: id(1), OwnAddresses: []string{"addr:001"}, Policy: ps[1]})
		step := func() {
			clock++
			Encounter(a, b, 0)
		}
		step()
		allocs = testing.AllocsPerRun(20, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 20
	}
	small, _ := measure(26)
	large, bytes := measure(256)
	if small != large || large > 10 || bytes >= 56*256 {
		t.Errorf("a steady-state MaxProp encounter allocates %v times at 26 nodes and %v (%d B) at 256; want equal, <= 10, and < %d B", small, large, bytes, 56*256)
	}
}
