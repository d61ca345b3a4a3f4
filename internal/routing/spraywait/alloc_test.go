// Allocation budget for the forwarding decision the serve walk asks for
// every candidate it scans: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package spraywait

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
)

// TestToSendAllocs pins ToSend at two allocations: the transmit transient is
// a clone of the stored one (a map header and its bucket), so it costs a
// map per forwarded copy until the transient stops being a map.
func TestToSendAllocs(t *testing.T) {
	p := New(16)
	e := entryWithCopies(16, true)
	allocs := testing.AllocsPerRun(100, func() {
		e.Transient.Set(item.FieldCopies, 16) // in place: the field exists
		if pr, tr := p.ToSend(e, routing.Target{}); pr.Class != routing.ClassNormal || tr.GetInt(item.FieldCopies) != 8 {
			t.Fatal("a 16-copy allowance was not halved")
		}
	})
	if allocs > 2 {
		t.Errorf("ToSend allocates %.1f/op, budget 2", allocs)
	}
}
