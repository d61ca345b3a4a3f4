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

// TestToSendAllocs pins ToSend at zero allocations: the transmit transient
// is a value, copied from the stored one.
func TestToSendAllocs(t *testing.T) {
	p := New(16)
	e := entryWithCopies(16, true)
	allocs := testing.AllocsPerRun(100, func() {
		e.Transient.Set(item.FieldCopies, 16)
		pr, tr := p.ToSend(e, routing.Target{})
		if c, _ := tr.Get(item.FieldCopies); pr.Class != routing.ClassNormal || c != 8 {
			t.Fatal("a 16-copy allowance was not halved")
		}
	})
	if allocs > 0 {
		t.Errorf("ToSend allocates %.1f/op, budget 0", allocs)
	}
}
