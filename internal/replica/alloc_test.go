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

	// MakeSyncRequest hands its caller a request of its own: the request
	// struct, which holds the O(1) copy-on-write knowledge clone header.
	req := benchRequest(1)
	makeAllocs := testing.AllocsPerRun(100, func() {
		if r := src.MakeSyncRequest(1); r == nil {
			t.Fatal("nil request")
		}
	})
	if makeAllocs > 1 {
		t.Errorf("MakeSyncRequest allocates %.1f/op, budget 1 (the request struct, knowledge clone header inside)", makeAllocs)
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
// allocates nothing. Each pull leaves its request (with its knowledge clone
// header) and the response it consumed to its replica, for the next request
// and serve; the carrier closures that run each leg stay on the stack.
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
		if allocs > 0 {
			t.Errorf("%s steady-state encounter allocates %.1f/op over a 1000-entry store, budget 0", tc.name, allocs)
		}
	}
}

// TestMaxPropEncounterAllocBudget pins a steady-state MaxProp encounter with
// summaries off. Each pull gives its request back when its sync ends, so the
// next request re-stamps the table in place and shares it, copies the homes
// into the array of the request given back, and the partner's state merges
// into both in place: no whole-table copy. The request shells, MaxProp's
// among them, and the responses are reused. The encounter allocates as
// often on a 256-node table as on a 26-node one — twice: each source's new
// own row (sorted.Divide; peers that adopted the old row share it by
// reference) — and fewer bytes than one copy of the larger table (56 B a
// row).
func TestMaxPropEncounterAllocBudget(t *testing.T) {
	small, _ := steadyCost(maxpropEncounter(26, false))
	large, bytes := steadyCost(maxpropEncounter(256, false))
	if small != large || large > 2 || bytes >= 56*256 {
		t.Errorf("a steady-state MaxProp encounter allocates %v times at 26 nodes and %v (%d B) at 256; want equal, <= 2, and < %d B", small, large, bytes, 56*256)
	}
}

// TestMaxPropSummaryEncounterAllocBudget is its twin with summaries on. The
// requests travel as deltas in process, and Pull gives them back as in exact
// mode: the target's frontier and the source's baseline keep copies of the
// table and homes in arrays of their own, reused at every sync, and the delta
// grows only as changed rows and homes are kept. So it allocates as often at
// 256 nodes as at 26 — the own rows, each delta and its few changed entries,
// and the knowledge frames — and fewer bytes than one copy of the table.
func TestMaxPropSummaryEncounterAllocBudget(t *testing.T) {
	small, _ := steadyCost(maxpropEncounter(26, true))
	large, bytes := steadyCost(maxpropEncounter(256, true))
	if small != large || large > 20 || bytes >= 56*256 {
		t.Errorf("a steady-state MaxProp summary encounter allocates %v times at 26 nodes and %v (%d B) at 256; want equal, <= 20, and < %d B", small, large, bytes, 56*256)
	}
}

// maxpropEncounter returns one steady-state encounter between two nodes of an
// n-node MaxProp fleet in which each node has met the next four, so every
// table holds n rows.
func maxpropEncounter(n int, summaries bool) func() {
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
	a := New(Config{ID: id(0), OwnAddresses: []string{"addr:000"}, Policy: ps[0], SyncSummaries: summaries})
	b := New(Config{ID: id(1), OwnAddresses: []string{"addr:001"}, Policy: ps[1], SyncSummaries: summaries})
	Encounter(a, b, 0) // first contact
	return func() {
		clock++
		Encounter(a, b, 0)
	}
}

// TestProphetEncounterAllocBudget pins a steady-state PROPHET encounter with
// summaries off, every vector holding n destinations. Each pull gives its
// request back, so the aging pass, the direct boost and the transitive merge
// write the vector in place, and the source copies the partner's vector into
// the array its cache already holds for that partner. The encounter
// allocates as often at 256 destinations as at 26, and fewer bytes than one
// copy of the larger vector (24 B an entry).
func TestProphetEncounterAllocBudget(t *testing.T) {
	small, _ := steadyCost(prophetEncounter(t, 26, false))
	large, bytes := steadyCost(prophetEncounter(t, 256, false))
	if small != large || large > 0 || bytes >= 24*256 {
		t.Errorf("a steady-state PROPHET encounter allocates %v times at 26 destinations and %v (%d B) at 256; want equal, 0, and < %d B", small, large, bytes, 24*256)
	}
}

// TestProphetSummaryEncounterAllocBudget is its twin with summaries on:
// the frontier and the baseline copy the vector into arrays of their own, so
// Pull gives the request back and the vector is written in place as in
// exact mode, and each delta grows only as its overrides are kept. It
// allocates as often at 256 destinations as at 26 — each delta and its
// overrides, and the knowledge frames — and fewer bytes than one copy of the
// vector.
func TestProphetSummaryEncounterAllocBudget(t *testing.T) {
	small, _ := steadyCost(prophetEncounter(t, 26, true))
	large, bytes := steadyCost(prophetEncounter(t, 256, true))
	if small != large || large > 12 || bytes >= 24*256 {
		t.Errorf("a steady-state PROPHET summary encounter allocates %v times at 26 destinations and %v (%d B) at 256; want equal, <= 12, and < %d B", small, large, bytes, 24*256)
	}
}

// prophetEncounter returns one steady-state encounter, one aging pass
// apart from the last, between two PROPHET nodes that have both met every
// one of n destinations.
func prophetEncounter(t *testing.T, n int, summaries bool) func() {
	clock := int64(0)
	now := func() int64 { return clock }
	params := prophet.DefaultParams()
	a := prophet.New(params, now, "addr:a")
	b := prophet.New(params, now, "addr:b")
	for i := 0; i < n; i++ { // both have met every destination
		peer := prophet.New(params, now, fmt.Sprintf("addr:%03d", i))
		id := vclock.ReplicaID(fmt.Sprintf("n%03d", i))
		a.ProcessReq(id, peer.GenerateReq())
		b.ProcessReq(id, peer.GenerateReq())
	}
	if got := a.Vector().Len(); got != n {
		t.Fatalf("a's vector holds %d destinations, want %d", got, n)
	}
	ra := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: a, SyncSummaries: summaries})
	rb := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: b, SyncSummaries: summaries})
	Encounter(ra, rb, 0) // first contact, which copies the vector Vector shared
	return func() {
		clock += params.AgingUnit // one aging pass per encounter
		Encounter(ra, rb, 0)
	}
}

// steadyCost runs step once to warm up, then returns its allocations and
// allocated bytes per run.
func steadyCost(step func()) (allocs float64, bytes uint64) {
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
