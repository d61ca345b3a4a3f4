package persist

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
)

// TestBackendLifecycle runs the whole lifecycle dtnnode runs over a real
// directory: first boot (ErrNoState), attach, mutate, checkpoint, close,
// reopen, and verify the restored replica carries the items and continues
// its version counter.
func TestBackendLifecycle(t *testing.T) {
	t.Run("wal", func(t *testing.T) { exerciseLifecycle(t, osfs(t)) })
}

func exerciseLifecycle(t *testing.T, fsys wal.FS) {
	t.Helper()
	cfg := replica.Config{ID: "n", OwnAddresses: []string{"addr:n"}}
	r := replica.New(cfg)
	db := attach(t, fsys, r)
	var ids []item.ID
	for i := 0; i < 3; i++ {
		it := r.CreateItem(item.Metadata{Source: "addr:n", Destinations: []string{"addr:m"}}, []byte(fmt.Sprintf("m-%d", i)))
		ids = append(ids, it.ID)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, snap := recoverState(t, fsys)
	defer db2.Close() //lint:allow errdiscard -- read-only reopen in a test; Close failure cannot invalidate the assertions already made
	r2 := replica.New(cfg)
	if err := r2.RestoreSnapshot(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, id := range ids {
		if !r2.HasItem(id) {
			t.Errorf("restored replica missing %s", id)
		}
	}
	next := r2.CreateItem(item.Metadata{Source: "addr:n", Destinations: []string{"addr:m"}}, []byte("post"))
	for _, id := range ids {
		if next.ID == id {
			t.Error("version counter restarted after reload")
		}
	}
}

// TestWALBackendReportsMetrics: the metrics a node hands the WAL count its
// appends on a real directory.
func TestWALBackendReportsMetrics(t *testing.T) {
	var m obs.WALMetrics
	db, err := wal.Open(osfs(t), wal.Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(); !errors.Is(err, wal.ErrNoState) {
		t.Fatalf("load: %v", err)
	}
	r := replica.New(replica.Config{ID: "n", OwnAddresses: []string{"addr:n"}})
	if err := db.Attach(r); err != nil {
		t.Fatal(err)
	}
	r.CreateItem(item.Metadata{Destinations: []string{"addr:m"}}, []byte("x"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Records == 0 || snap.Bytes == 0 {
		t.Errorf("wal metrics not wired: %+v", snap)
	}
}

// TestSyncDir pins the directory fsync behind every manifest commit: success
// on a real directory, a loud error when the directory is gone. Without it a
// crash shortly after a rename can roll the directory entry back on a real
// filesystem, even though the commit reported success.
func TestSyncDir(t *testing.T) {
	if err := osfs(t).SyncDir(); err != nil {
		t.Errorf("SyncDir on real dir: %v", err)
	}
	missing := &wal.OSFS{Dir: filepath.Join(t.TempDir(), "missing")}
	if err := missing.SyncDir(); err == nil {
		t.Error("SyncDir on missing dir should fail")
	}
}
