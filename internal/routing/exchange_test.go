package routing_test

import (
	"fmt"
	"math/rand"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// BenchmarkRoutingExchange is one encounter leg of each policy whose state
// rides the sync request, on a fleet the size of the paper trace's and on
// one ten times larger, each warmed by random encounters. Two nodes meet
// over and over: each leg, one generates its request and the other processes
// it, and the next leg swaps them, as an encounter's two syncs do, with the
// clock moving on between encounters. Per policy and fleet, "exchange" is
// the leg's GenerateReq and ProcessReq alone; "decisions=50" adds 50 ToSend
// decisions by the processing node. For MaxProp, "path-tree" adds one
// decision that prices a path, so one shortest-path tree build.
func BenchmarkRoutingExchange(b *testing.B) {
	policies := []struct {
		name string
		new  func(id vclock.ReplicaID, addr string, now func() int64) routing.Policy
	}{
		{"prophet", func(_ vclock.ReplicaID, addr string, now func() int64) routing.Policy {
			return prophet.New(prophet.DefaultParams(), now, addr)
		}},
		{"maxprop", func(id vclock.ReplicaID, addr string, now func() int64) routing.Policy {
			return maxprop.New(id, maxprop.DefaultHopThreshold, now, addr)
		}},
	}
	id := func(i int) vclock.ReplicaID { return vclock.ReplicaID(fmt.Sprintf("n%03d", i)) }
	addr := func(i int) string { return fmt.Sprintf("addr:%03d", i) }
	for _, pol := range policies {
		for _, n := range []int{26, 256} {
			var clock int64
			now := func() int64 { return clock }
			ps := make([]routing.Policy, n)
			for i := range ps {
				ps[i] = pol.new(id(i), addr(i), now)
			}
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < 8*n; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				clock += 7
				ps[i].ProcessReq(id(j), ps[j].GenerateReq())
				ps[j].ProcessReq(id(i), ps[i].GenerateReq())
			}
			entries := make([]*store.Entry, 50)
			for k := range entries {
				entries[k] = &store.Entry{
					Item: &item.Item{
						ID: item.ID{Creator: "n000", Num: uint64(k + 1)},
						// Homed on neither node of the pair: pricing it takes the tree.
						Meta: item.Metadata{Destinations: []string{addr(2 + rng.Intn(n-2))}},
					},
					Transient: item.TransientMap{item.FieldHops: maxprop.DefaultHopThreshold}.Transient(),
				}
			}
			ids := []vclock.ReplicaID{id(0), id(1)}
			cases := []struct {
				name      string
				decisions []*store.Entry
			}{{"exchange", nil}, {"decisions=50", entries}, {"path-tree", entries[:1]}}
			if pol.name != "maxprop" {
				cases = cases[:2] // no tree to build
			}
			for _, c := range cases {
				b.Run(fmt.Sprintf("%s/nodes=%d/%s", pol.name, n, c.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if i%2 == 0 {
							clock += 7 // a new encounter
						}
						gen, proc := i%2, 1-i%2
						target := routing.Target{ID: ids[gen]}
						ps[proc].ProcessReq(target.ID, ps[gen].GenerateReq())
						for _, e := range c.decisions {
							ps[proc].ToSend(e, target)
						}
					}
				})
			}
		}
	}
}
