package wal

// The crash-point matrix: kill the WAL at EVERY filesystem durability
// operation it ever issues — mid-record writes, post-record/pre-sync,
// mid-flush, mid-merge, mid-manifest-swap — under all three unsynced-
// tail behaviors, and prove recovery always lands exactly on a state the
// workload actually passed through, never behind the durable prefix and
// never past the crashed operation.
//
// Oracle. A counting pass runs the scripted workload uninjected and records
// (a) the total number of FS durability operations O and (b) the reference
// snapshot after every script step. Then, for each k in [0, O) and each
// crash mode, a fresh run injects a failure at operation k (every FS
// operation from k on fails — a process does not outlive its first failed
// fsync for long), crashes the filesystem, recovers, and checks:
//
//	recovered == ref[j] for some j, with completed(k) <= j <= completed(k)+1
//
// where completed(k) counts script steps that finished with the DB healthy.
// The +1 covers the crashed operation itself: its batch may have reached
// disk (KeepUnsynced) or not (DropUnsynced) — both are legal outcomes of a
// crash concurrent with a write, and WHICH one is visible is exactly what
// recovery may not get wrong. The lower bound is the durability guarantee:
// every mutating call that returned with a healthy DB was fsynced, so no
// crash mode may lose it.

import (
	"errors"
	"fmt"
	"testing"

	"replidtn/internal/replica"
)

// crashScriptOpts stresses every boundary: a flush after every batch, so the
// op sweep crosses record appends, flushes, manifest swaps, and full and
// partial merges many times within one script.
var crashScriptOpts = Options{flushEvery: 1}

// countingRun executes the full script uninjected and returns the total FS
// op count, the reference snapshots — refs[i] is the state after step i-1
// (refs[0] is the fresh pre-attach state) — and the merges the run made.
func countingRun(t *testing.T) (totalOps int, refs []*replica.Snapshot, merges *mergeRecorder) {
	t.Helper()
	fsys := NewMemFS()
	merges = &mergeRecorder{FS: fsys}
	env := newScriptEnv(t)
	refs = append(refs, mustSnapshot(t, env.r))
	db, _ := openAttached(t, merges, crashScriptOpts, func() *replica.Replica { return env.r })
	for i := 0; i < scriptSteps; i++ {
		env.step(i)
		refs = append(refs, mustSnapshot(t, env.r))
	}
	if err := db.Err(); err != nil {
		t.Fatalf("counting run poisoned: %v", err)
	}
	return fsys.Ops(), refs, merges
}

func TestCrashPointMatrix(t *testing.T) {
	totalOps, refs, merges := countingRun(t)
	if totalOps < scriptSteps {
		t.Fatalf("suspicious op count %d", totalOps)
	}
	// The sweep crashes at every op, so it crashes inside every merge the
	// counting run made: both kinds must be among them.
	if merges.full == 0 || merges.partial == 0 {
		t.Fatalf("script made %d full and %d partial merges; the matrix must cross both", merges.full, merges.partial)
	}
	t.Logf("%d ops, %d full and %d partial merges", totalOps, merges.full, merges.partial)
	for _, mode := range []struct {
		name string
		mode CrashMode
	}{
		{"drop-unsynced", DropUnsynced},
		{"keep-unsynced", KeepUnsynced},
		{"keep-half-tail", KeepHalfTail},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for k := 0; k < totalOps; k++ {
				runCrashPoint(t, k, mode.mode, refs)
			}
		})
	}
}

// runCrashPoint injects a failure at FS operation k, crashes, recovers, and
// checks the oracle.
func runCrashPoint(t *testing.T, k int, mode CrashMode, refs []*replica.Snapshot) {
	t.Helper()
	fsys := NewMemFS()
	fsys.SetCrashMode(mode)
	fsys.SetFailAfter(k)

	env := newScriptEnv(t)
	db, err := Open(fsys, crashScriptOpts)
	if err != nil {
		t.Fatalf("k=%d: open: %v", k, err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		t.Fatalf("k=%d: load: %v", k, err)
	}
	completed := 0
	if err := db.Attach(env.r); err == nil {
		for i := 0; i < scriptSteps; i++ {
			env.step(i)
			if db.Err() != nil {
				break
			}
			completed = i + 1
		}
	}
	// A real crash kills the process here; the injected-failure run above
	// only decided how far the workload got (completed) before dying.
	fsys.Crash()

	db2, err := Open(fsys, crashScriptOpts)
	if err != nil {
		t.Fatalf("k=%d mode=%v: reopen: %v", k, mode, err)
	}
	got, err := db2.Load()
	if errors.Is(err, ErrNoState) {
		// Nothing durable at all: legal only if the very first commit (the
		// attach checkpoint) never finished, i.e. no step completed.
		if completed != 0 {
			t.Fatalf("k=%d mode=%v: %d steps durable but recovery found no state", k, mode, completed)
		}
		return
	}
	if err != nil {
		t.Fatalf("k=%d mode=%v: recover: %v", k, mode, err)
	}

	for j := completed; j <= completed+1 && j < len(refs); j++ {
		if DiffSnapshots(refs[j], got) == "" {
			return
		}
	}
	t.Fatalf("k=%d mode=%v: recovered state matches neither ref[%d] nor ref[%d]: vs ref[%d]: %s",
		k, mode, completed, completed+1, completed, DiffSnapshots(refs[completed], got))
}

// TestCrashPointDoubleCrash re-runs a band of crash points, then continues
// the workload on the recovered state and crashes again mid-flight — the
// recover-from-a-recovery path (fresh log generation over inherited
// segments) that single-crash sweeps never exercise.
func TestCrashPointDoubleCrash(t *testing.T) {
	totalOps, _, _ := countingRun(t)
	// Sample a spread of first-crash points; sweeping the full cross
	// product would be quadratic in ops for little extra coverage.
	for k := 3; k < totalOps; k += 7 {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			fsys := NewMemFS()
			fsys.SetCrashMode(KeepHalfTail)
			fsys.SetFailAfter(k)
			env := newScriptEnv(t)
			db, err := Open(fsys, crashScriptOpts)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if _, err := db.Load(); !errors.Is(err, ErrNoState) {
				t.Fatalf("load: %v", err)
			}
			if err := db.Attach(env.r); err == nil {
				for i := 0; i < scriptSteps && db.Err() == nil; i++ {
					env.step(i)
				}
			}
			fsys.Crash()

			// Second life: recover, run the full script on the recovered
			// replica, verify exact recovery of the second life's end state.
			env2 := newScriptEnv(t)
			db2, r2 := openAttached(t, fsys, crashScriptOpts, func() *replica.Replica { return env2.r })
			env2.runScript(0, scriptSteps)
			if err := db2.Err(); err != nil {
				t.Fatalf("second life poisoned: %v", err)
			}
			want := mustSnapshot(t, r2)

			fsys.Crash()
			db3, err := Open(fsys, crashScriptOpts)
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			got, err := db3.Load()
			if err != nil {
				t.Fatalf("third recover: %v", err)
			}
			if d := DiffSnapshots(want, got); d != "" {
				t.Fatalf("second-life recovery differs: %s", d)
			}
		})
	}
}
