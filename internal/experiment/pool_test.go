package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"replidtn/internal/emu"
	"replidtn/internal/fault"
	"replidtn/internal/obs"
)

// TestRunPoolMatchesSerial: the run pool's width must not show in the output.
// The whole suite — faults, crash-restarts and sync summaries on — prints the
// same bytes and aggregates the same observability counters whether its runs
// execute one at a time or eight at once. Under -race this is also the check
// that concurrent runs share no unsynchronised state.
func TestRunPoolMatchesSerial(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) (string, obs.NodeSnapshot) {
		runtime.GOMAXPROCS(procs)
		nm := &obs.NodeMetrics{}
		s := Settings{
			Faults:    fault.Config{Seed: 3, Drop: 0.1, Cutoff: 0.2, CutoffItems: 2, Crash: 0.02},
			Obs:       nm,
			Summaries: true,
		}
		var b strings.Builder
		if err := Run(&b, "all", tr, s); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		snap := nm.Snapshot()
		// KnowledgeSize is a last-writer gauge (obs.ReplicaMetrics): shared
		// across concurrent runs it reports whichever sync finished last.
		snap.Replica.KnowledgeSize = 0
		return b.String(), snap
	}
	serialOut, serialObs := run(1)
	poolOut, poolObs := run(8)
	if serialOut != poolOut {
		t.Errorf("suite output differs between GOMAXPROCS 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", serialOut, poolOut)
	}
	if !reflect.DeepEqual(serialObs, poolObs) {
		t.Errorf("observability counters differ between GOMAXPROCS 1 and 8:\n%+v\n%+v", serialObs, poolObs)
	}
	if serialObs.Replica.SyncsInitiated == 0 || serialObs.Replica.SyncsAborted == 0 {
		t.Errorf("suite exercised too little: %+v", serialObs.Replica)
	}
}

// TestRunPoolReportsLowestFailingIndex: when several runs fail, the pool
// reports the lowest failing index, however the runs were scheduled.
func TestRunPoolReportsLowestFailingIndex(t *testing.T) {
	tr := smallTrace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	jobs := make([]job, 5)
	for i := range jobs {
		jobs[i] = job{fmt.Sprintf("run%d", i), emu.Config{Trace: tr}}
	}
	jobs[1].cfg.DataBackend = "bogus"
	jobs[3].cfg.DataBackend = "bogus"
	for n := 0; n < 20; n++ {
		res, err := Settings{}.runAll("pool", jobs)
		if err == nil || res != nil {
			t.Fatalf("two failing runs: results %v, error %v", res, err)
		}
		if !strings.HasPrefix(err.Error(), "experiment: pool run1: ") {
			t.Fatalf("error %q does not name the lowest failing run (run1)", err)
		}
	}
}
