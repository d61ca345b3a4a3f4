// Allocation budget for the serve walk over the version runs: counts, not
// clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package store

import (
	"fmt"
	"testing"

	"replidtn/internal/vclock"
)

// TestRangeAboveAllocs pins RangeAbove at zero allocations: 26 creators of
// 200 entries each, the last 10 of each unknown, so the walk descends every
// run and yields 260 entries.
func TestRangeAboveAllocs(t *testing.T) {
	s := New(0)
	for c := 0; c < 26; c++ {
		for i := 1; i <= 200; i++ {
			s.Put(mkItem(fmt.Sprintf("c%02d", c), uint64(i)), nil, false, false)
		}
	}
	floor := func(vclock.ReplicaID) uint64 { return 190 }
	yielded := 0
	fn := func(*Entry) bool {
		yielded++
		return true
	}
	examined := 0
	allocs := testing.AllocsPerRun(100, func() {
		yielded = 0
		examined = s.RangeAbove(floor, fn)
		if yielded != 260 {
			t.Fatalf("yielded %d entries, want 260", yielded)
		}
	})
	if allocs > 0 {
		t.Errorf("RangeAbove allocates %.1f/op examining %d entries, budget 0", allocs, examined)
	}
}
