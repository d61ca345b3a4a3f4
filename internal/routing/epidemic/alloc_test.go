// Allocation budget for the forwarding decision the serve walk asks for
// every candidate it scans: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package epidemic

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
)

// TestDecideAllocs pins Decide at zero allocations once the copy's TTL is
// stamped: only the first consideration of a copy writes its transient.
func TestDecideAllocs(t *testing.T) {
	p := New(10)
	e := entryWithTTL(4, true)
	allocs := testing.AllocsPerRun(100, func() {
		if p.Decide(e, routing.Target{}).Class != routing.ClassNormal {
			t.Fatal("a live copy was skipped")
		}
	})
	if allocs > 0 {
		t.Errorf("Decide allocates %.1f/op, budget 0", allocs)
	}
}

// TestMaterializeAllocs pins Materialize at zero allocations: the in-flight
// copy's transient is a value, built per transmitted item.
func TestMaterializeAllocs(t *testing.T) {
	p := New(10)
	e := entryWithTTL(4, true)
	allocs := testing.AllocsPerRun(100, func() {
		if ttl, _ := p.Materialize(e, routing.Target{}).Get(item.FieldTTL); ttl != 3 {
			t.Fatal("the in-flight TTL was not decremented")
		}
	})
	if allocs > 0 {
		t.Errorf("Materialize allocates %.1f/op, budget 0", allocs)
	}
}
