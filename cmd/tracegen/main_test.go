package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"replidtn/internal/mobility"
	"replidtn/internal/trace"
)

func TestRunWritesAllFiles(t *testing.T) {
	dir := t.TempDir()
	if err := run(dir, 1, 3, ""); err != nil {
		t.Fatal(err)
	}
	nodes, err := os.Open(filepath.Join(dir, trace.NodesFile))
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Close()
	roster, err := trace.ReadNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(roster) == 0 {
		t.Error("no nodes written")
	}
	enc, err := os.Open(filepath.Join(dir, "encounters.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	encounters, err := trace.ReadEncounters(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(encounters) == 0 {
		t.Error("no encounters written")
	}
	msgs, err := os.Open(filepath.Join(dir, "messages.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer msgs.Close()
	messages, err := trace.ReadMessages(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(messages) == 0 {
		t.Error("no messages written")
	}
	for _, m := range messages {
		if trace.Day(m.Time) >= 3 {
			t.Errorf("message %s beyond the 3-day override", m.ID)
		}
	}
	asg, err := os.Open(filepath.Join(dir, "assignments.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer asg.Close()
	assignments, err := trace.ReadAssignments(asg)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignments) != 3 {
		t.Errorf("assignments cover %d days, want 3", len(assignments))
	}
}

func TestRunBadDirectory(t *testing.T) {
	if err := run("/dev/null/nope", 1, 0, ""); err == nil {
		t.Error("unwritable directory should fail")
	}
}

// TestScenarioRoundTrip is the CSV round-trip gate for the mobility
// generators: a written scenario directory loaded back through trace.LoadDir
// must reconstruct the generated trace exactly — roster (silent nodes
// included, via nodes.csv), schedule, workload, and assignments.
func TestScenarioRoundTrip(t *testing.T) {
	// Dense enough that every node meets someone: LoadDir rosters a node on
	// a day only if it meets or hosts a user, the generator rosters them all.
	spec := "community:n=25,seed=9,users=6,msgs=15,active=3600,cells=3,spacing=300"
	dir := t.TempDir()
	if err := run(dir, 1, 0, spec); err != nil {
		t.Fatal(err)
	}
	want, err := mobility.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded trace differs from generated scenario:\nbuses %d vs %d, encounters %d vs %d, messages %d vs %d",
			len(got.Buses), len(want.Buses), len(got.Encounters), len(want.Encounters),
			len(got.Messages), len(want.Messages))
	}
}

func TestScenarioRejectsDaysOverride(t *testing.T) {
	if err := run(t.TempDir(), 1, 3, "rwp:n=10"); err == nil {
		t.Error("-days with -scenario should fail")
	}
}

func TestBadScenarioSpec(t *testing.T) {
	if err := run(t.TempDir(), 1, 0, "warp:n=10"); err == nil {
		t.Error("unknown scenario model should fail")
	}
}
