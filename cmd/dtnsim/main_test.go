package main

import (
	"os"
	"strings"
	"testing"

	"replidtn/internal/fault"
	"replidtn/internal/obs"
)

// TestRunKnownExperiments runs every experiment the package doc lists on the
// scaled-down trace, alternating the summary protocol, and checks that each
// one that emulates actually synced.
func TestRunKnownExperiments(t *testing.T) {
	for i, name := range []string{
		"table1", "table2", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10",
		"all", "summary", "fault-sweep",
		"ablation-ttl", "ablation-copies", "ablation-threshold", "ablation-bandwidth",
		"ablation-bytes", "ablation-storage", "ablation-lifetime", "ablation-eviction",
	} {
		emulates := name != "table1" && name != "table2"
		t.Run(name, func(t *testing.T) {
			nm := &obs.NodeMetrics{}
			if err := run(name, true, 1, "", "", fault.Config{}, nm, i%2 == 0); err != nil {
				t.Fatalf("run(%q): %v", name, err)
			}
			if synced := nm.Replica.SyncsInitiated.Value() > 0; synced != emulates {
				t.Errorf("run(%q) synced=%v, want %v (SyncsInitiated=%d)",
					name, synced, emulates, nm.Replica.SyncsInitiated.Value())
			}
		})
	}
}

func TestDumpObs(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "obs")
	if err != nil {
		t.Fatal(err)
	}
	nm := &obs.NodeMetrics{}
	nm.Replica.SyncsInitiated.Add(3)
	dumpObs(f, nm)
	out, err := os.ReadFile(f.Name())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"syncs_initiated": 3`) {
		t.Errorf("dump missing counter:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("fig99", true, 1, "", "", fault.Config{}, nil, false); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestBuildTrace(t *testing.T) {
	small, err := buildTrace(true, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	full, err := buildTrace(false, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if small.Days >= full.Days {
		t.Errorf("small trace (%d days) should be shorter than full (%d days)",
			small.Days, full.Days)
	}
	if err := full.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRunWithFaults(t *testing.T) {
	// A faulted figure run exercises the full flag path: parsed spec, seeded
	// schedule, and fault option threading through the experiment driver.
	cfg, err := fault.Parse("drop=0.2,cutoff=0.3,cutoff-items=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 7
	if err := run("fig8", true, 1, "", "", cfg, nil, true); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
}

func TestBuildTraceScenario(t *testing.T) {
	tr, err := buildTrace(false, 1, "", "rwp:n=30,seed=5,users=8,msgs=20,active=3600")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Buses) != 30 {
		t.Errorf("scenario trace has %d nodes, want 30", len(tr.Buses))
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := buildTrace(false, 1, "", "warp:n=10"); err == nil {
		t.Error("unknown scenario model should fail")
	}
}

func TestRunScenarioExperiment(t *testing.T) {
	// -scenario replaces the generated trace for any experiment.
	nm := &obs.NodeMetrics{}
	spec := "community:n=30,seed=5,users=8,msgs=20,active=3600,cells=2,bias=0.8"
	if err := run("summary", false, 1, "", spec, fault.Config{}, nm, false); err != nil {
		t.Fatalf("run(summary, %q): %v", spec, err)
	}
	if nm.Replica.SyncsInitiated.Value() == 0 {
		t.Error("scenario run performed no syncs")
	}
}
