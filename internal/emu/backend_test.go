package emu

import (
	"strings"
	"testing"

	"replidtn/internal/fault"
)

// TestWALBackendDifferentialCrashRestart is the emulator-level differential
// for the WAL persistence backend: the same faulted schedule — dropped
// contacts, mid-sync cutoffs, and crash-restarts — run once under the default
// crash model and once over per-node write-ahead logs must produce
// bit-identical results and event logs. The default model hands the dying
// node's state, captured at the crash instant, straight to the rebooted
// node; the WAL path hard-crashes the node's filesystem (unsynced bytes lost)
// and recovers by segment + log replay, so identity here means the WAL made
// every mutation durable the moment it happened and replays it exactly.
//
// The differential covers the substrate and the policies whose durable state
// is entirely journaled (store entries, knowledge, identity). Policies that
// keep crash-volatile routing hints — PROPHET's and MaxProp's own policy
// state (persisted only at checkpoint boundaries) and spray-and-wait's
// in-place copy-allowance decrements on the sender's stored entries during
// HandleSyncRequest (the explicit volatile class in the WAL's durability
// contract) — are exercised by the invariants test below instead: a hard
// mid-run crash legitimately rolls those hints back further than the
// crash-instant capture would, changing forwarding efficiency but never
// correctness.
func TestWALBackendDifferentialCrashRestart(t *testing.T) {
	tr := miniTrace(t)
	for _, name := range []PolicyName{PolicyBasic, PolicyEpidemic} {
		t.Run(string(name), func(t *testing.T) {
			var snapLog strings.Builder
			snap := runPolicy(t, tr, name, func(c *Config) {
				c.Faults = testFaults(7)
				c.EventLog = &snapLog
			})
			if snap.Crashes == 0 {
				t.Fatal("fault mix scheduled no crashes; the backends are not being compared")
			}
			var walLog strings.Builder
			wal := runPolicy(t, tr, name, func(c *Config) {
				c.Faults = testFaults(7)
				c.DataBackend = "wal"
				c.EventLog = &walLog
			})
			assertIdenticalResults(t, snap, wal)
			if snapLog.String() != walLog.String() {
				t.Errorf("wal-backend event log differs from the crash-instant model\n%s",
					firstLogDiff(snapLog.String(), walLog.String()))
			}
		})
	}
}

// TestWALBackendInvariants runs the crash mix over the WAL backend for every
// evaluated policy and checks the substrate guarantees the backend must
// carry: crashes actually happened, at-most-once held (zero duplicates), and
// the network still delivered.
func TestWALBackendInvariants(t *testing.T) {
	tr := miniTrace(t)
	for _, name := range AllPolicies {
		t.Run(string(name), func(t *testing.T) {
			res := runPolicy(t, tr, name, func(c *Config) {
				c.Faults = fault.Config{Seed: 11, Crash: 0.05}
				c.DataBackend = "wal"
			})
			if res.Crashes == 0 {
				t.Fatal("no crashes scheduled")
			}
			if res.Duplicates != 0 {
				t.Errorf("WAL recovery broke at-most-once: %d duplicates", res.Duplicates)
			}
			if res.Summary.DeliveredCount() == 0 {
				t.Error("WAL-backed crash-restarts killed all delivery")
			}
		})
	}
}

// TestUnknownDataBackendRejected: a typo'd backend name — or the retired
// "snapshot" — fails the run loudly instead of silently running without
// persistence.
func TestUnknownDataBackendRejected(t *testing.T) {
	tr := miniTrace(t)
	for _, name := range []string{"etcd", "snapshot"} {
		if _, err := Run(Config{Trace: tr, DataBackend: name}); err == nil {
			t.Errorf("data backend %q should fail Run", name)
		}
	}
}

// TestWALBackendNoFaults: with no faults scheduled the WAL backend is pure
// overhead — journaling must not perturb the run at all.
func TestWALBackendNoFaults(t *testing.T) {
	tr := miniTrace(t)
	run := func(backend string) (*Result, string) {
		var log strings.Builder
		res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
			c.DataBackend = backend
			c.EventLog = &log
		})
		return res, log.String()
	}
	snap, snapLog := run("")
	wal, walLog := run("wal")
	assertIdenticalResults(t, snap, wal)
	if snapLog != walLog {
		t.Errorf("journaling perturbed a fault-free run\n%s", firstLogDiff(snapLog, walLog))
	}
}
