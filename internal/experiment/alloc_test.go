// Allocation budget for the emulation as a whole: the test-side form of
// ROADMAP item 20's emu.allocs_per_encounter. Counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package experiment

import (
	"runtime"
	"testing"

	"replidtn/internal/emu"
)

// TestEmuAllocsPerEncounter pins the heap allocations of emu.Run, per
// encounter, for every policy under the Fig. 7(a), 9 and 10 settings on the
// small trace: set-up, injection and the 1 124 encounters, each two syncs.
// The budgets are the counts measured when each serve began keeping its
// candidate buffer for the next and sorting it without boxing (the counts
// before are in the comment beside each), plus a margin of half an
// allocation per encounter for allocations the Go runtime may add or remove
// between releases.
func TestEmuAllocsPerEncounter(t *testing.T) {
	const margin = 0.5
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                         string
		maxPerContact, relayCapacity int
		measured                     map[emu.PolicyName]float64
	}{
		{"fig7a", 0, 0, map[emu.PolicyName]float64{
			emu.PolicyBasic: 1.61, emu.PolicyProphet: 3.25, emu.PolicySpray: 3.74, emu.PolicyEpidemic: 2.81, emu.PolicyMaxProp: 5.50, // 1.66, 3.77, 4.13, 3.12, 5.81
		}},
		{"fig9", 1, 0, map[emu.PolicyName]float64{
			emu.PolicyBasic: 1.59, emu.PolicyProphet: 4.04, emu.PolicySpray: 2.41, emu.PolicyEpidemic: 5.22, emu.PolicyMaxProp: 5.68, // 1.61, 4.34, 2.50, 5.78, 6.24
		}},
		{"fig10", 0, 2, map[emu.PolicyName]float64{
			emu.PolicyBasic: 1.61, emu.PolicyProphet: 3.22, emu.PolicySpray: 3.01, emu.PolicyEpidemic: 2.93, emu.PolicyMaxProp: 5.50, // 1.66, 3.68, 3.31, 3.46, 6.02
		}},
	} {
		for _, policy := range emu.AllPolicies {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := emu.Run(emu.Config{
				Trace:                   tr,
				Policy:                  emu.Factory(policy, emu.DefaultParams()),
				MaxMessagesPerEncounter: c.maxPerContact,
				RelayCapacity:           c.relayCapacity,
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perEncounter := float64(after.Mallocs-before.Mallocs) / float64(out.Encounters)
			if budget := c.measured[policy] + margin; perEncounter > budget {
				t.Errorf("%s %s: %.2f allocations per encounter, budget %.2f", c.name, policy, perEncounter, budget)
			}
		}
	}
}
