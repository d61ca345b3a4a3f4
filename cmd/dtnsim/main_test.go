package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"replidtn/internal/experiment"
	"replidtn/internal/fault"
	"replidtn/internal/obs"
	"replidtn/internal/trace"
)

// TestRunKnownExperiments renders every experiment of the index on the
// scaled-down trace three ways — plain, with sync summaries, and under
// faults — and compares the SHA-256 of each output, as dtnsim prints it,
// with testdata/small.sha256. A change that moves an output on purpose
// regenerates that file in the same commit; a mismatch prints the new line.
// It also checks that each experiment that emulates actually synced.
func TestRunKnownExperiments(t *testing.T) {
	golden := map[string]string{}
	data, err := os.ReadFile("testdata/small.sha256")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, key, _ := strings.Cut(line, "  ")
		golden[key] = sum
	}
	faults, err := fault.Parse("drop=0.1,cutoff=0.3,cutoff-items=2,crash=0.01")
	if err != nil {
		t.Fatal(err)
	}
	// dtnsim's -fault-seed defaults to 1, with or without -faults.
	faults.Seed = 1
	cases := []struct {
		name string
		s    experiment.Settings
	}{
		{"plain", experiment.Settings{Faults: fault.Config{Seed: 1}}},
		{"summaries", experiment.Settings{Faults: fault.Config{Seed: 1}, Summaries: true}},
		{"faults", experiment.Settings{Faults: faults}},
	}
	for _, name := range experiment.Names() {
		emulates := name != "table1" && name != "table2"
		t.Run(name, func(t *testing.T) {
			for _, c := range cases {
				nm := &obs.NodeMetrics{}
				c.s.Obs = nm
				var b bytes.Buffer
				if err := run(&b, name, true, 1, "", c.s); err != nil {
					t.Fatalf("run(%q): %v", name, err)
				}
				key := c.name + "/" + name
				if sum := sha256.Sum256(b.Bytes()); hex.EncodeToString(sum[:]) != golden[key] {
					t.Errorf("%s: output moved; its digest line is now\n%x  %s", key, sum, key)
				}
				if synced := nm.Replica.SyncsInitiated.Value() > 0; synced != emulates {
					t.Errorf("%s synced=%v, want %v (SyncsInitiated=%d)",
						key, synced, emulates, nm.Replica.SyncsInitiated.Value())
				}
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
	if err := run(io.Discard, "fig99", true, 1, "", experiment.Settings{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestBuildTrace(t *testing.T) {
	small, err := buildTrace(true, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	full, err := buildTrace(false, 1, "")
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
	// A directory of CSVs, as cmd/tracegen writes one, loads through the
	// dir: scenario.
	dir := t.TempDir()
	for file, write := range map[string]func(io.Writer) error{
		trace.EncountersFile:  func(w io.Writer) error { return trace.WriteEncounters(w, small.Encounters) },
		trace.MessagesFile:    func(w io.Writer) error { return trace.WriteMessages(w, small.Messages) },
		trace.AssignmentsFile: func(w io.Writer) error { return trace.WriteAssignments(w, small.Assignment) },
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := buildTrace(false, 1, "dir:"+dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Encounters, small.Encounters) || !reflect.DeepEqual(loaded.Messages, small.Messages) {
		t.Error("dir: trace differs from the trace written to it")
	}
	if _, err := buildTrace(false, 1, "dir:"+filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing trace directory should fail")
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
	if err := run(io.Discard, "fig8", true, 1, "", experiment.Settings{Faults: cfg, Summaries: true}); err != nil {
		t.Fatalf("faulted run: %v", err)
	}
}

func TestBuildTraceScenario(t *testing.T) {
	tr, err := buildTrace(false, 1, "rwp:n=30,seed=5,users=8,msgs=20,active=3600")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Buses) != 30 {
		t.Errorf("scenario trace has %d nodes, want 30", len(tr.Buses))
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := buildTrace(false, 1, "warp:n=10"); err == nil {
		t.Error("unknown scenario model should fail")
	}
}

func TestRunScenarioExperiment(t *testing.T) {
	// -scenario replaces the generated trace for any experiment.
	nm := &obs.NodeMetrics{}
	spec := "community:n=30,seed=5,users=8,msgs=20,active=3600,cells=2,bias=0.8"
	if err := run(io.Discard, "summary", false, 1, spec, experiment.Settings{Obs: nm}); err != nil {
		t.Fatalf("run(summary, %q): %v", spec, err)
	}
	if nm.Replica.SyncsInitiated.Value() == 0 {
		t.Error("scenario run performed no syncs")
	}
}
