// Allocation budget for the forwarding decision the serve walk asks for
// the candidates it reaches: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package epidemic

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
)

// TestDecideAllocs pins the forwarding decision at zero allocations: ToSend's
// priority and DestinationOnly read the stored TTL, or the initial budget for
// a copy that carries none, and write nothing.
func TestDecideAllocs(t *testing.T) {
	p := New(10)
	for _, e := range []*store.Entry{entryWithTTL(4, true), entryWithTTL(0, false)} {
		allocs := testing.AllocsPerRun(100, func() {
			if pr, _ := p.ToSend(e, routing.Target{}); pr != forward.Priority || p.DestinationOnly(e) {
				t.Fatal("a live copy was skipped")
			}
		})
		if allocs > 0 {
			t.Errorf("the decision allocates %.1f/op, budget 0", allocs)
		}
	}
}

// TestMaterializeAllocs pins the in-flight copy at zero allocations: ToSend
// returns its transient as a value, with the TTL decremented.
func TestMaterializeAllocs(t *testing.T) {
	p := New(10)
	for _, c := range []struct {
		e    *store.Entry
		want int
	}{{entryWithTTL(4, true), 3}, {entryWithTTL(0, false), 9}} {
		allocs := testing.AllocsPerRun(100, func() {
			_, tr := p.ToSend(c.e, routing.Target{})
			if ttl, ok := tr.Get(item.FieldTTL); !ok || ttl != c.want {
				t.Fatal("the in-flight TTL was not decremented")
			}
		})
		if allocs > 0 {
			t.Errorf("the in-flight copy allocates %.1f/op, budget 0", allocs)
		}
	}
}
