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

// TestRangeAboveAllocs pins the walks at zero allocations over 26 creators
// of 200 entries each, the last 10 of each unknown: RangeAbove over the main
// runs, descending every run and yielding 260 entries; and, with the same
// entries filed under two of 4 destinations each, the lookup of one address
// and the walk over every destination, which skips the entries it meets
// under a destination other than their first.
func TestRangeAboveAllocs(t *testing.T) {
	main, byDest := New(0), New(0)
	byDest.DestinationOnly(func(*Entry) bool { return true })
	for c := 0; c < 26; c++ {
		for i := 1; i <= 200; i++ {
			main.Put(mkItem(fmt.Sprintf("c%02d", c), uint64(i)), nil, false, false)
			it := mkItem(fmt.Sprintf("c%02d", c), uint64(i))
			it.Meta.Destinations = []string{fmt.Sprintf("to:%d", i%4), fmt.Sprintf("to:%d", (i+1)%4)}
			byDest.Put(it, nil, false, false)
		}
	}
	floor := func(vclock.ReplicaID, bool) uint64 { return 190 }
	yielded := 0
	fn := func(*Entry) bool {
		yielded++
		return true
	}
	for _, walk := range []struct {
		name string
		want int
		run  func() int
	}{
		{"RangeAbove", 260, func() int { return main.RangeAbove(floor, fn) }},
		{"RangeAboveTo", 130, func() int { return byDest.RangeAboveTo("to:1", floor, fn) }},
		{"RangeAboveDestinations", 260, func() int { return byDest.RangeAboveDestinations(floor, fn) }},
	} {
		examined := 0
		allocs := testing.AllocsPerRun(100, func() {
			yielded = 0
			examined = walk.run()
			if yielded != walk.want {
				t.Fatalf("%s yielded %d entries, want %d", walk.name, yielded, walk.want)
			}
		})
		if allocs > 0 {
			t.Errorf("%s allocates %.1f/op examining %d entries, budget 0", walk.name, allocs, examined)
		}
	}
}
