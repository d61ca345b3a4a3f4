// Allocation budget for the host filter the serve walk applies to every
// candidate it scans: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package filter

import (
	"fmt"
	"testing"
)

// TestAddressesMatchAllocs pins Addresses.Match at zero allocations in both
// of Contains' forms: the compared list while the set is at most fewAddrs,
// the map beyond.
func TestAddressesMatchAllocs(t *testing.T) {
	for _, n := range []int{1, fewAddrs, 4 * fewAddrs} {
		f := NewAddresses()
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("user:%d", i))
		}
		hit := msgTo("user:x", fmt.Sprintf("user:%d", n-1))
		miss := msgTo("user:x", "user:y")
		allocs := testing.AllocsPerRun(100, func() {
			if !f.Match(hit) || f.Match(miss) {
				t.Fatal("Match answered wrong")
			}
		})
		if allocs > 0 {
			t.Errorf("%d addresses: Match allocates %.1f/op, budget 0", n, allocs)
		}
	}
}

// TestAddressesEachAllocs pins Addresses.Each — the serve walk's iteration
// over a target's addresses — at zero allocations, on both sides of
// fewAddrs and at 17, the widest filter of Fig. 5, and checks it visits
// every address once.
func TestAddressesEachAllocs(t *testing.T) {
	for _, n := range []int{1, fewAddrs, 17} {
		f := NewAddresses()
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("user:%d", i))
		}
		seen := 0
		allocs := testing.AllocsPerRun(100, func() {
			seen = 0
			f.Each(func(a string) {
				if f.Contains(a) {
					seen++
				}
			})
		})
		if seen != n {
			t.Errorf("%d addresses: Each visited %d", n, seen)
		}
		if allocs > 0 {
			t.Errorf("%d addresses: Each allocates %.1f/op, budget 0", n, allocs)
		}
	}
}

// TestAddressesCoversAllocs pins Addresses.Covers — asked at every serve
// whether the source may offer its whole knowledge — at zero allocations,
// on both sides of fewAddrs.
func TestAddressesCoversAllocs(t *testing.T) {
	for _, n := range []int{1, fewAddrs, 4 * fewAddrs} {
		f, sub := NewAddresses(), NewAddresses()
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("user:%d", i))
			if i%2 == 0 {
				sub.Add(fmt.Sprintf("user:%d", i))
			}
		}
		stranger := NewAddresses("user:0", "user:x")
		allocs := testing.AllocsPerRun(100, func() {
			if !f.Covers(sub) || f.Covers(stranger) {
				t.Fatal("Covers answered wrong")
			}
		})
		if allocs > 0 {
			t.Errorf("%d addresses: Covers allocates %.1f/op, budget 0", n, allocs)
		}
	}
}
