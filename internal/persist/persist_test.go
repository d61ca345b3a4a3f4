package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
)

func mkMsg(r *replica.Replica, from, to string) *item.Item {
	return r.CreateItem(item.Metadata{
		Source: from, Destinations: []string{to}, Kind: "message",
	}, []byte("persisted"))
}

// osfs returns a WAL filesystem over a fresh directory.
func osfs(t *testing.T) *wal.OSFS {
	t.Helper()
	fsys, err := wal.NewOSFS(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

// TestSaveLoadRoundTrip: a mutation is durable once the call returns, with
// no checkpoint — a hard crash right after it recovers the item, its
// knowledge, and the version counter.
func TestSaveLoadRoundTrip(t *testing.T) {
	fsys := wal.NewMemFS()
	cfg := replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}}
	a := replica.New(cfg)
	attach(t, fsys, a)
	msg := mkMsg(a, "addr:a", "addr:b")
	restored := reboot(t, fsys, cfg)
	if !restored.HasItem(msg.ID) {
		t.Error("restored replica missing item")
	}
	if !restored.Knowledge().Contains(msg.Version) {
		t.Error("restored replica missing knowledge")
	}
	// The version counter must continue, not restart: a new item must not
	// collide with the persisted one.
	next := mkMsg(restored, "addr:a", "addr:c")
	if next.ID == msg.ID {
		t.Error("version counter restarted after restore")
	}
}

// TestLoadMissingFile: a directory without a manifest is a first boot, told
// apart from corruption by wal.ErrNoState.
func TestLoadMissingFile(t *testing.T) {
	db, err := wal.Open(osfs(t), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(); !errors.Is(err, wal.ErrNoState) {
		t.Errorf("err = %v, want ErrNoState", err)
	}
}

// TestLoadRejectsCorruption: a garbage manifest or a truncated segment on
// disk fails recovery loudly instead of restoring partial state.
func TestLoadRejectsCorruption(t *testing.T) {
	fsys := osfs(t)
	if err := os.WriteFile(filepath.Join(fsys.Dir, "MANIFEST"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Open(fsys, wal.Options{}); err == nil {
		t.Error("garbage manifest should fail to open")
	}

	fsys = osfs(t)
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	db := attach(t, fsys, a)
	mkMsg(a, "addr:a", "addr:b")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	truncated := 0
	for _, name := range names {
		if !strings.HasPrefix(name, "seg-") {
			continue
		}
		path := filepath.Join(fsys.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		truncated++
	}
	if truncated == 0 {
		t.Fatal("close wrote no segment")
	}
	db, err = wal.Open(fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(); err == nil {
		t.Error("truncated segment should fail to load")
	}
}

func TestLoadRejectsWrongReplica(t *testing.T) {
	fsys := wal.NewMemFS()
	attach(t, fsys, replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}}))
	_, snap := recoverState(t, fsys)
	if err := replica.New(replica.Config{ID: "b"}).RestoreSnapshot(snap); err == nil {
		t.Error("state of another replica should be rejected")
	}
}

func TestAtMostOncePersistsAcrossRestart(t *testing.T) {
	// b receives a's message, crashes, restarts from its log, and meets a
	// again: the message must not be re-accepted.
	fsys := wal.NewMemFS()
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	cfgB := replica.Config{ID: "b", OwnAddresses: []string{"addr:b"}}
	b := replica.New(cfgB)
	attach(t, fsys, b)
	mkMsg(a, "addr:a", "addr:b")
	replica.Sync(a, b, 0)
	if b.Stats().Delivered != 1 {
		t.Fatal("setup: delivery failed")
	}
	b2 := reboot(t, fsys, cfgB)
	res := replica.Sync(a, b2, 0)
	if res.Sent != 0 {
		t.Errorf("restarted replica re-received %d items", res.Sent)
	}
	if b2.Stats().Delivered != 0 {
		t.Error("restored item must not re-deliver")
	}
}

func TestTransientStateSurvivesRestart(t *testing.T) {
	// Epidemic TTLs are per-copy transients; they must survive restarts or
	// restarted nodes would re-flood with a fresh hop budget.
	fsys := wal.NewMemFS()
	a := replica.New(replica.Config{
		ID: "a", OwnAddresses: []string{"addr:a"}, Policy: epidemic.New(3),
	})
	cfgR := replica.Config{
		ID: "r", OwnAddresses: []string{"addr:r"}, Policy: epidemic.New(3),
	}
	rel := replica.New(cfgR)
	attach(t, fsys, rel)
	msg := mkMsg(a, "addr:a", "addr:z")
	replica.Sync(a, rel, 0)
	wantTTL := rel.Entry(msg.ID).Transient.Map()[item.FieldTTL]
	rel2 := reboot(t, fsys, cfgR)
	if got := rel2.Entry(msg.ID).Transient.Map()[item.FieldTTL]; got != wantTTL {
		t.Errorf("TTL after restart = %d, want %d", got, wantTTL)
	}
}

// prophetPair returns two PROPHET replicas after one encounter, a's policy
// having learned about addr:b, and a's WAL on fsys checkpointed since.
func prophetPair(t *testing.T, fsys wal.FS) (a *replica.Replica, want float64) {
	t.Helper()
	var now int64
	clock := func() int64 { return now }
	mk := func(id, addr string) *replica.Replica {
		return replica.New(replica.Config{
			ID:           vclock.ReplicaID(id),
			OwnAddresses: []string{addr},
			Policy:       prophet.New(prophet.DefaultParams(), clock, addr),
		})
	}
	a, b := mk("a", "addr:a"), mk("b", "addr:b")
	db := attach(t, fsys, a)
	replica.Encounter(a, b, 0)
	want = a.Policy().(*prophet.Policy).Predictability("addr:b")
	if want <= 0 {
		t.Fatal("setup: no predictability learned")
	}
	// Routing state is checkpoint-grained (DESIGN §13): durable once a
	// checkpoint has run, as dtnnode's does after every sync round.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return a, want
}

func TestProphetStateSurvivesRestart(t *testing.T) {
	fsys := wal.NewMemFS()
	_, want := prophetPair(t, fsys)
	// Restart with a fresh policy instance; restore must repopulate it.
	freshPolicy := prophet.New(prophet.DefaultParams(), func() int64 { return 0 }, "addr:a")
	reboot(t, fsys, replica.Config{
		ID: "a", OwnAddresses: []string{"addr:a"}, Policy: freshPolicy,
	})
	if got := freshPolicy.Predictability("addr:b"); got != want {
		t.Errorf("predictability after restart = %v, want %v", got, want)
	}
}

func TestSnapshotPolicyStateWithoutPersistentPolicy(t *testing.T) {
	// Recovering state that carries policy state into a config without a
	// persistent policy must fail loudly rather than drop routing state.
	fsys := wal.NewMemFS()
	prophetPair(t, fsys)
	fsys.Crash()
	_, snap := recoverState(t, fsys)
	r := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	if err := r.RestoreSnapshot(snap); err == nil {
		t.Error("expected failure when dropping persistent policy state")
	}
}

// TestSaveOverwritesAtomically: each checkpoint replaces the previous one
// whole, and leaves behind only the files the manifest names.
func TestSaveOverwritesAtomically(t *testing.T) {
	fsys := osfs(t)
	cfg := replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}}
	a := replica.New(cfg)
	db := attach(t, fsys, a)
	mkMsg(a, "addr:a", "addr:b")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mkMsg(a, "addr:a", "addr:c")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, snap := recoverState(t, fsys)
	restored := replica.New(cfg)
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if total, _, _ := restored.StoreLen(); total != 2 {
		t.Errorf("restored store has %d entries, want 2", total)
	}
	// No temp files left behind.
	names, err := fsys.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name != "MANIFEST" && !strings.HasPrefix(name, "seg-") && !strings.HasPrefix(name, "wal-") {
			t.Errorf("stray file %s after checkpoints", name)
		}
	}
}

func TestSaveToUnwritableDirectory(t *testing.T) {
	if _, err := wal.NewOSFS("/dev/null/nope"); err == nil {
		t.Error("unwritable path should fail")
	}
}
