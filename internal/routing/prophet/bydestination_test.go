package prophet

import (
	"math/rand"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
)

// TestDestinationsPriceToSend pins the routing.Planner contract on
// states learned in random encounters among eight nodes, node i homing
// addr(i), under all three strategies: Plan lists addresses in
// strictly ascending order, and for entries of one to three destinations
// out of ten, one named twice among them, ToSend gives the earliest priority
// listed for them, or Skip when none is listed, and the zero Transient. An
// unknown partner is listed nothing, and neither is a destination both
// sides predict alike.
func TestDestinationsPriceToSend(t *testing.T) {
	listed := 0
	for _, st := range []Strategy{GRTRSort, GRTR, GRTRMax} {
		params := DefaultParams()
		params.Strategy = st
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			clk := &simClock{}
			nodes := make([]*Policy, 8)
			for i := range nodes {
				nodes[i] = New(params, clk.now, addr(i))
			}
			for n := 0; n < 60; n++ {
				a, b := rng.Intn(len(nodes)), rng.Intn(len(nodes))
				if a != b {
					clk.t += rng.Int63n(3 * params.AgingUnit)
					nodes[b].ProcessReq(id(a), reqFrom(nodes[a]))
					nodes[a].ProcessReq(id(b), reqFrom(nodes[b]))
				}
			}
			src := nodes[0]
			for j := 1; j < len(nodes); j++ {
				target := routing.Target{ID: id(j)}
				src.ProcessReq(target.ID, reqFrom(nodes[j]))
				priced := src.Plan(nil, target)
				listed += len(priced)
				for k := 1; k < len(priced); k++ {
					if priced[k-1].To >= priced[k].To {
						t.Fatalf("%v seed %d target %d: %q listed before %q", st, seed, j, priced[k-1].To, priced[k].To)
					}
				}
				for n := 0; n < 100; n++ {
					e := destEntry(rng)
					want := routing.Skip
					for _, d := range e.Item.Meta.Destinations {
						for _, p := range priced {
							if p.To == d && p.Priority.Before(want) {
								want = p.Priority
							}
						}
					}
					if got, tr := src.ToSend(e, target); got != want || tr != (item.Transient{}) {
						t.Fatalf("%v seed %d target %d: ToSend(%v) = %+v, %v; the listed prices %+v give %+v",
							st, seed, j, e.Item.Meta.Destinations, got, tr.Map(), priced, want)
					}
				}
			}
			if got := src.Plan(nil, routing.Target{ID: "nobody"}); len(got) != 0 {
				t.Fatalf("%v: an unknown partner is listed %+v", st, got)
			}
		}
		// Source and target met the destination once, at the same time.
		clk := &simClock{}
		src, tgt, dst := New(params, clk.now, "addr:src"), New(params, clk.now, "addr:tgt"), New(params, clk.now, "addr:dst")
		src.ProcessReq("dst", reqFrom(dst))
		tgt.ProcessReq("dst", reqFrom(dst))
		src.ProcessReq("tgt", reqFrom(tgt))
		for _, p := range src.Plan(nil, routing.Target{ID: "tgt"}) {
			if p.To == "addr:dst" {
				t.Errorf("%v: a destination both sides predict alike is listed at %+v", st, p.Priority)
			}
		}
	}
	if listed < 500 {
		t.Errorf("corpus too thin to mean anything: %d destinations listed", listed)
	}
}

// destEntry returns an entry of one to three destinations out of
// addr(0)–addr(9), the last a repeat of the first one time in four.
func destEntry(rng *rand.Rand) *store.Entry {
	dests := make([]string, 1+rng.Intn(3))
	for i := range dests {
		dests[i] = addr(rng.Intn(10))
	}
	if len(dests) > 1 && rng.Intn(4) == 0 {
		dests[len(dests)-1] = dests[0]
	}
	return &store.Entry{Item: &item.Item{ID: item.ID{Creator: "a", Num: 1}, Meta: item.Metadata{Destinations: dests}}}
}

// TestPublishedOwnAddressesKept: the request shares the policy's address
// list, so re-homing the node replaces the list rather than writing the one
// a request already carries.
func TestPublishedOwnAddressesKept(t *testing.T) {
	clk := &simClock{}
	p := newPolicy(clk, "addr:a", "addr:b")
	req := reqFrom(p)
	p.SetOwnAddresses("addr:c", "addr:d")
	if got := strings.Join(req.OwnAddresses, ","); got != "addr:a,addr:b" {
		t.Errorf("a published request's addresses changed to %s", got)
	}
	if got := strings.Join(reqFrom(p).OwnAddresses, ","); got != "addr:c,addr:d" {
		t.Errorf("the next request carries %s", got)
	}
}
