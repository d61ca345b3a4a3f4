package emu

import (
	"strings"
	"testing"

	"replidtn/internal/fault"
	"replidtn/internal/obs"
)

// testFaults is a fault mix exercising every dimension at once: dropped
// contacts, probabilistic mid-sync cutoffs, and crash-restarts.
func testFaults(seed int64) fault.Config {
	return fault.Config{Seed: seed, Drop: 0.15, Cutoff: 0.2, CutoffItems: 3, Crash: 0.02}
}

// TestFaultsDisabledIsByteIdentical: the zero fault config must leave the run
// indistinguishable from one that never heard of faults — all fault counters
// zero and no fault lines in the event log. (The fault-free code path is the
// exact pre-fault-layer code.)
func TestFaultsDisabledIsByteIdentical(t *testing.T) {
	tr := miniTrace(t)
	var log strings.Builder
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = fault.Config{}
		c.EventLog = &log
	})
	if res.EncountersDropped != 0 || res.SyncsAborted != 0 || res.ItemsWasted != 0 ||
		res.BytesWasted != 0 || res.Crashes != 0 {
		t.Errorf("fault counters nonzero without faults: %+v", counters(res))
	}
	for _, kind := range []string{",drop,", ",abort,", ",crash,"} {
		if strings.Contains(log.String(), kind) {
			t.Errorf("fault-free log contains %q lines", kind)
		}
	}
}

// TestDifferentialFaultSeed: a fixed fault seed makes faulted runs exactly
// repeatable, and changing the seed changes the fault schedule.
func TestDifferentialFaultSeed(t *testing.T) {
	tr := miniTrace(t)
	run := func(seed int64) (*Result, string) {
		var log strings.Builder
		res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
			c.Faults = testFaults(seed)
			c.EventLog = &log
		})
		return res, log.String()
	}
	res1, log1 := run(42)
	res2, log2 := run(42)
	assertIdenticalResults(t, res1, res2)
	if log1 != log2 {
		t.Errorf("same fault seed, different logs:\n%s", firstLogDiff(log1, log2))
	}
	res3, log3 := run(43)
	if counters(res1) == counters(res3) && log1 == log3 {
		t.Error("different fault seeds produced identical runs")
	}
}

// TestDroppedEncountersAccounting: a dropped contact is counted but performs
// no synchronization, so Syncs tracks only the encounters that happened, and
// of those only the legs that ran.
func TestDroppedEncountersAccounting(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = fault.Config{Seed: 1, Drop: 0.3}
	})
	if res.Encounters != len(tr.Encounters) {
		t.Errorf("Encounters = %d, want %d (drops included)", res.Encounters, len(tr.Encounters))
	}
	if res.EncountersDropped == 0 {
		t.Fatal("drop probability 0.3 dropped nothing")
	}
	if want := 2 * (res.Encounters - res.EncountersDropped); res.Syncs != want {
		t.Errorf("Syncs = %d, want %d (unconstrained: both legs of every surviving encounter)", res.Syncs, want)
	}
	// Under a one-item budget, a first leg that spends it leaves no second
	// leg to count: Syncs is the pulls the replicas issued.
	rm := &obs.ReplicaMetrics{}
	budgeted := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = fault.Config{Seed: 1, Drop: 0.3}
		c.MaxMessagesPerEncounter = 1
		c.Metrics = rm
	})
	surviving := budgeted.Encounters - budgeted.EncountersDropped
	if int64(budgeted.Syncs) != rm.SyncsInitiated.Value() || budgeted.Syncs <= surviving || budgeted.Syncs >= 2*surviving {
		t.Errorf("one-item budget: Syncs = %d, replicas initiated %d; want that many, between %d and %d",
			budgeted.Syncs, rm.SyncsInitiated.Value(), surviving, 2*surviving)
	}
	clean := runPolicy(t, tr, PolicyEpidemic, nil)
	if res.Summary.DeliveredCount() > clean.Summary.DeliveredCount() {
		t.Errorf("dropping encounters improved delivery: %d > %d",
			res.Summary.DeliveredCount(), clean.Summary.DeliveredCount())
	}
}

// TestCutoffFaultsStayConsistent: mid-sync cutoffs waste transfer volume but
// never corrupt the substrate — at-most-once holds, the waste is accounted,
// and wasted items are a subset of the transferred total.
func TestCutoffFaultsStayConsistent(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = fault.Config{Seed: 5, Cutoff: 0.4, CutoffItems: 2}
	})
	if res.SyncsAborted == 0 {
		t.Fatal("cutoff probability 0.4 aborted nothing")
	}
	if res.Duplicates != 0 {
		t.Errorf("cutoffs broke at-most-once: %d duplicates", res.Duplicates)
	}
	if res.ItemsWasted > res.ItemsTransferred || res.BytesWasted > res.BytesTransferred {
		t.Errorf("waste exceeds transfer: %d/%d items, %d/%d bytes",
			res.ItemsWasted, res.ItemsTransferred, res.BytesWasted, res.BytesTransferred)
	}
	if res.ItemsWasted == 0 && res.BytesWasted != 0 {
		t.Errorf("bytes wasted (%d) without items wasted", res.BytesWasted)
	}
}

// TestCrashRestartPreservesOutcome is the crash-restart integration check:
// with a stateless routing policy, every node's durable state survives the
// crash instant whole, so a crash-only faulted run must reproduce the
// fault-free run's deliveries and transfer counters exactly — no lost
// messages, no duplicate deliveries, no perturbed copy accounting.
func TestCrashRestartPreservesOutcome(t *testing.T) {
	tr := miniTrace(t)
	clean := runPolicy(t, tr, PolicyEpidemic, nil)
	crashed := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = fault.Config{Seed: 11, Crash: 0.05}
	})
	if crashed.Crashes == 0 {
		t.Fatal("crash probability 0.05 scheduled no crashes")
	}
	if crashed.Duplicates != 0 {
		t.Errorf("restarts broke at-most-once: %d duplicates", crashed.Duplicates)
	}
	// Everything except the Crashes counter itself must match the clean run.
	cc, kc := counters(clean), counters(crashed)
	kc[10] = 0
	if cc != kc {
		t.Errorf("crash-only run diverged from fault-free run:\nclean   %+v\ncrashed %+v", cc, kc)
	}
	ds, dc := clean.Summary.Deliveries(), crashed.Summary.Deliveries()
	for i := range ds {
		if ds[i] != dc[i] {
			t.Errorf("delivery %d diverged: clean=%+v crashed=%+v", i, ds[i], dc[i])
		}
	}
}

// TestCrashRestartPersistentPolicy runs the crash mix under every policy —
// including the persistent ones whose state must survive the restart — and
// checks the substrate invariants hold for each.
func TestCrashRestartPersistentPolicy(t *testing.T) {
	tr := miniTrace(t)
	for _, name := range AllPolicies {
		t.Run(string(name), func(t *testing.T) {
			res := runPolicy(t, tr, name, func(c *Config) {
				c.Faults = fault.Config{Seed: 11, Crash: 0.05}
			})
			if res.Crashes == 0 {
				t.Fatal("no crashes scheduled")
			}
			if res.Duplicates != 0 {
				t.Errorf("%d duplicates after restarts", res.Duplicates)
			}
			if res.Summary.DeliveredCount() == 0 {
				t.Error("crash-restarts killed all delivery")
			}
		})
	}
}

// TestFaultLogLinesWellFormed: every fault event line keeps the log's
// five-field CSV shape, so downstream consumers need no special cases.
func TestFaultLogLinesWellFormed(t *testing.T) {
	tr := miniTrace(t)
	var log strings.Builder
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = testFaults(7)
		c.EventLog = &log
	})
	want := map[string]int{"drop": res.EncountersDropped, "crash": res.Crashes}
	got := map[string]int{}
	aborts := 0
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			t.Fatalf("log line has %d fields, want 5: %q", len(fields), line)
		}
		switch fields[1] {
		case "drop", "crash":
			got[fields[1]]++
		case "abort":
			aborts++
		}
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%d %q lines, want %d", got[kind], kind, n)
		}
	}
	if res.SyncsAborted > 0 && aborts == 0 {
		t.Error("aborted syncs produced no abort lines")
	}
	// Abort lines are per-encounter, aborted syncs per-leg.
	if aborts > res.SyncsAborted {
		t.Errorf("%d abort lines exceed %d aborted syncs", aborts, res.SyncsAborted)
	}
}
