package wal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
)

// openAttached opens a DB on fsys, loads (tolerating first boot), restores
// into a fresh replica built by build, and attaches. It returns both.
func openAttached(t *testing.T, fsys FS, opts Options, build func() *replica.Replica) (*DB, *replica.Replica) {
	t.Helper()
	db, err := Open(fsys, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	snap, err := db.Load()
	r := build()
	switch {
	case errors.Is(err, ErrNoState):
	case err != nil:
		t.Fatalf("load: %v", err)
	default:
		if err := r.RestoreSnapshot(snap); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	if err := db.Attach(r); err != nil {
		t.Fatalf("attach: %v", err)
	}
	return db, r
}

func TestFreshLoadReportsNoState(t *testing.T) {
	db, err := Open(NewMemFS(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		t.Fatalf("Load on fresh dir = %v, want ErrNoState", err)
	}
}

func TestAttachRequiresLoad(t *testing.T) {
	fsys := NewMemFS()
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{}, func() *replica.Replica { return env.r })
	env.runScript(0, 4)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := db2.Attach(env.r); err == nil || !strings.Contains(err.Error(), "Load first") {
		t.Fatalf("Attach without Load = %v, want load-first error", err)
	}
}

// TestRoundTripAfterCrash is the core recovery property: run the scripted
// workload, crash at the end (dropping everything unsynced), reopen, and the
// recovered snapshot must equal the live replica's final state — every
// append was fsynced before its mutating call returned, so nothing was lost.
func TestRoundTripAfterCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"no-auto-flush", Options{flushEvery: -1}},
		{"flush-every-3", Options{flushEvery: 3}},
		{"flush-and-compact", Options{flushEvery: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := NewMemFS()
			env := newScriptEnv(t)
			db, _ := openAttached(t, fsys, tc.opts, func() *replica.Replica { return env.r })
			env.runScript(0, scriptSteps)
			if err := db.Err(); err != nil {
				t.Fatalf("db poisoned: %v", err)
			}
			want := mustSnapshot(t, env.r)

			fsys.Crash()
			db2, err := Open(fsys, tc.opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			got, err := db2.Load()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if d := DiffSnapshots(want, got); d != "" {
				t.Fatalf("recovered state differs: %s", d)
			}
		})
	}
}

// TestRecoveredReplicaKeepsWorking proves the recovered state is live, not
// just equal: restore it, attach a new DB generation, keep mutating, crash
// again, and recover the extended state.
func TestRecoveredReplicaKeepsWorking(t *testing.T) {
	fsys := NewMemFS()
	opts := Options{flushEvery: 1}
	env := newScriptEnv(t)
	_, _ = openAttached(t, fsys, opts, func() *replica.Replica { return env.r })
	env.runScript(0, scriptSteps/2)

	fsys.Crash()
	env2 := newScriptEnv(t)
	_, r2 := openAttached(t, fsys, opts, func() *replica.Replica { return env2.r })
	env2.runScript(scriptSteps/2, scriptSteps)
	want := mustSnapshot(t, r2)

	fsys.Crash()
	db3, err := Open(fsys, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, err := db3.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
	if got.Epoch != want.Epoch {
		t.Fatalf("epoch %d, want %d", got.Epoch, want.Epoch)
	}
}

// TestCleanCloseRecovers: Close checkpoints, so a clean shutdown recovers
// exactly even with every unsynced byte dropped afterwards.
func TestCleanCloseRecovers(t *testing.T) {
	fsys := NewMemFS()
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: -1}, func() *replica.Replica { return env.r })
	env.runScript(0, 10)
	want := mustSnapshot(t, env.r)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fsys.Crash()

	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
}

// TestProphetStateSurvivesCloseReopen: routing-policy state is checkpointed
// by Close and compared byte-wise by DiffSnapshots, so a PROPHET replica's
// recovered snapshot must equal its live one across close → reopen — which
// needs the policy to serialize identical state to identical bytes.
func TestProphetStateSurvivesCloseReopen(t *testing.T) {
	clock := func() int64 { return 1000 }
	build := func(id string) *replica.Replica {
		return replica.New(replica.Config{
			ID: vclock.ReplicaID(id), OwnAddresses: []string{"addr:" + id},
			Policy: prophet.New(prophet.DefaultParams(), clock, "addr:"+id),
		})
	}
	fsys := NewMemFS()
	db, r := openAttached(t, fsys, Options{}, func() *replica.Replica { return build("a") })
	for i := 0; i < 20; i++ {
		peer := build(fmt.Sprintf("p%02d", i))
		peer.CreateItem(item.Metadata{Destinations: []string{"addr:a"}}, []byte("hi"))
		replica.Encounter(peer, r, 0)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := mustSnapshot(t, r)
	if len(want.PolicyState) == 0 {
		t.Fatal("scenario built no policy state")
	}
	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
}

// TestTornTailTruncated: a crash that preserves half of an unsynced record
// (KeepHalfTail) recovers to the last durable state and counts the
// truncation, instead of failing or replaying garbage.
func TestTornTailTruncated(t *testing.T) {
	fsys := NewMemFS()
	fsys.SetCrashMode(KeepHalfTail)
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: -1}, func() *replica.Replica { return env.r })
	env.runScript(0, 6)
	want := mustSnapshot(t, env.r)

	// Start one more append and fail its fsync: the write lands, the sync
	// does not, and KeepHalfTail leaves half the record on disk.
	fsys.SetFailAfter(1) // the write succeeds, the sync fails
	env.r.CreateItem(item.Metadata{}, []byte("doomed"))
	if db.Err() == nil {
		t.Fatal("append survived the injected sync failure")
	}
	fsys.Crash()

	m := &obs.WALMetrics{}
	db2, err := Open(fsys, Options{Metrics: m})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
	if m.TruncatedTails.Value() != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", m.TruncatedTails.Value())
	}
}

// TestSegmentCorruptionFailsLoudly: damage inside a manifest-referenced
// segment is not a truncatable tail — recovery must refuse.
func TestSegmentCorruptionFailsLoudly(t *testing.T) {
	fsys := NewMemFS()
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: 2}, func() *replica.Replica { return env.r })
	env.runScript(0, 8)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	man, ok, err := readManifest(fsys)
	if err != nil || !ok {
		t.Fatalf("manifest: %v ok=%v", err, ok)
	}
	seg := man.Segments[0]
	data, err := fsys.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := rewrite(fsys, seg, data); err != nil {
		t.Fatalf("rewrite: %v", err)
	}

	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := db2.Load(); !errors.Is(err, errCorrupt) {
		t.Fatalf("Load over corrupt segment = %v, want errCorrupt", err)
	}
}

// TestUnreferencedFilesIgnored: strays from interrupted flushes and merges
// (files not named by the manifest) do not confuse recovery, generation
// numbering skips past them, and Attach's full checkpoint reclaims them —
// but nothing that is not a DB file.
func TestUnreferencedFilesIgnored(t *testing.T) {
	fsys := NewMemFS()
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: -1}, func() *replica.Replica { return env.r })
	env.runScript(0, 6)
	want := mustSnapshot(t, env.r)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	strays := []string{segName(90), logName(91)}
	for _, name := range append(strays, "notes.txt") {
		if err := rewrite(fsys, name, []byte("stray")); err != nil {
			t.Fatalf("stray: %v", err)
		}
	}

	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
	if db2.segSeq != 91 || db2.logSeq != 92 {
		t.Fatalf("generation numbering segSeq=%d logSeq=%d, want 91/92", db2.segSeq, db2.logSeq)
	}

	if err := db2.Attach(env.r); err != nil {
		t.Fatalf("attach: %v", err)
	}
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{manifestName, segName(91), logName(92), "notes.txt"}
	slices.Sort(wantNames)
	if !slices.Equal(names, wantNames) {
		t.Fatalf("after Attach the directory holds %v, want %v", names, wantNames)
	}
}

// TestCompactionBoundsSegments: a long run with aggressive flushing merges,
// keeps the manifest within the tiering bound, and removed entries stay
// removed through merges.
func TestCompactionBoundsSegments(t *testing.T) {
	fsys := NewMemFS()
	m := &obs.WALMetrics{}
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: 1, Metrics: m}, func() *replica.Replica { return env.r })
	maxSegs := 0
	for i := 0; i < scriptSteps; i++ {
		env.step(i)
		maxSegs = max(maxSegs, len(db.man.Segments))
	}
	if err := db.Err(); err != nil {
		t.Fatalf("db poisoned: %v", err)
	}
	// At most mergeWidth-1 segments per size tier; a few dozen flushes of
	// similar size span at most three tiers.
	if maxSegs > 3*(mergeWidth-1) {
		t.Fatalf("manifest reached %d segments, want <= %d", maxSegs, 3*(mergeWidth-1))
	}
	if m.Compactions.Value() == 0 {
		t.Fatal("no merges under flushEvery=1")
	}
	want := mustSnapshot(t, env.r)

	fsys.Crash()
	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
}

// TestOSFSRoundTrip runs the workload on the real filesystem.
func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys, err := NewOSFS(dir)
	if err != nil {
		t.Fatalf("osfs: %v", err)
	}
	env := newScriptEnv(t)
	db, _ := openAttached(t, fsys, Options{flushEvery: 1}, func() *replica.Replica { return env.r })
	env.runScript(0, scriptSteps)
	want := mustSnapshot(t, env.r)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	fsys2, err := NewOSFS(dir)
	if err != nil {
		t.Fatalf("osfs: %v", err)
	}
	db2, err := Open(fsys2, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Fatalf("recovered state differs: %s", d)
	}
}

// TestAppendMetrics sanity-checks the counters on the happy path.
func TestAppendMetrics(t *testing.T) {
	fsys := NewMemFS()
	m := &obs.WALMetrics{}
	env := newScriptEnv(t)
	_, _ = openAttached(t, fsys, Options{flushEvery: 4, Metrics: m}, func() *replica.Replica { return env.r })
	env.runScript(0, scriptSteps)
	if m.Records.Value() == 0 || m.Bytes.Value() == 0 {
		t.Fatalf("no records/bytes counted: %+v", m.Snapshot())
	}
	if m.Flushes.Value() == 0 {
		t.Fatal("no flushes counted")
	}
	if m.Segments.Value() == 0 {
		t.Fatal("segments gauge unset")
	}
}

// rewrite replaces a MemFS/OSFS file's contents (test helper).
func rewrite(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.SyncDir()
}
