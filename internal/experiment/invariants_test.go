package experiment

import (
	"testing"

	"replidtn/internal/emu"
)

// TestEpidemicEqualsMaxPropUnconstrained pins the paper's observation that
// "Epidemic and MaxProp have identical delay distributions for this
// experiment because they differ in the messages forwarded only when the
// network bandwidth is constrained": without constraints, the two policies
// must produce byte-identical delivery records.
func TestEpidemicEqualsMaxPropUnconstrained(t *testing.T) {
	tr := smallTrace(t)
	ps, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	epi := ps.Results[emu.PolicyEpidemic].Summary.Deliveries()
	mp := ps.Results[emu.PolicyMaxProp].Summary.Deliveries()
	if len(epi) != len(mp) {
		t.Fatalf("delivery counts differ: %d vs %d", len(epi), len(mp))
	}
	for i := range epi {
		if epi[i] != mp[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, epi[i], mp[i])
		}
	}
	// Under a tight bandwidth constraint they are allowed to (and typically
	// do) diverge — that is where MaxProp's ordering matters.
	bw, err := RunPolicySweep(tr, emu.DefaultParams(), 1, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if bw.Results[emu.PolicyEpidemic].ItemsTransferred == 0 {
		t.Error("constrained epidemic moved nothing")
	}
}

// TestKnowledgeStaysCompact pins the substrate's compact-metadata claim: the
// average knowledge size per replica stays proportional to the fleet size,
// not the message count, for every policy.
func TestKnowledgeStaysCompact(t *testing.T) {
	tr := smallTrace(t)
	ps, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	fleet := float64(len(tr.Buses))
	msgs := float64(len(tr.Messages))
	for name, res := range ps.Results {
		if res.MeanKnowledgeEntries > 4*fleet {
			t.Errorf("%s: knowledge averages %.0f entries for a %d-bus fleet",
				name, res.MeanKnowledgeEntries, len(tr.Buses))
		}
		if res.MeanKnowledgeEntries >= msgs {
			t.Errorf("%s: knowledge (%.0f) grew to message scale (%d)",
				name, res.MeanKnowledgeEntries, len(tr.Messages))
		}
	}
}
