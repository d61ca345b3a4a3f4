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
// rides the sync request: the partner's GenerateReq, our ProcessReq, then
// 50 ToSend decisions for that partner — on a fleet the size of the paper
// trace's and on one ten times larger, each warmed by random encounters.
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
			b.Run(fmt.Sprintf("%s/nodes=%d", pol.name, n), func(b *testing.B) {
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
							ID:   item.ID{Creator: "n000", Num: uint64(k + 1)},
							Meta: item.Metadata{Destinations: []string{addr(rng.Intn(n))}},
						},
						Transient: item.TransientMap{item.FieldHops: maxprop.DefaultHopThreshold}.Transient(),
					}
				}
				p, partner, target := ps[0], ps[1], routing.Target{ID: id(1)}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.ProcessReq(target.ID, partner.GenerateReq())
					for _, e := range entries {
						p.ToSend(e, target)
					}
				}
			})
		}
	}
}
