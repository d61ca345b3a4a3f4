package wal

// Differential property test: for random mutation sequences, the state the
// WAL recovers after a hard crash must be semantically identical to the live
// replica's own snapshot at the same instant. The snapshot is the reference —
// the state itself, captured whole — so any divergence indicts the WAL's
// journal, flush, merge, or replay logic.
//
// The crash is a real one (MemFS drops unsynced bytes): this checks not just
// that replay composes mutations correctly, but that every mutating call's
// effects were durable by the time it returned.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
)

// randomOps drives n random mutations against r, pulling sync batches from
// peer. Every journaled mutation kind is reachable: creates, updates,
// tombstones, relayed batches with eviction, knowledge merges, identity
// flips, and expiry purges.
func randomOps(t *testing.T, rng *rand.Rand, r, peer *replica.Replica, now *int64, n int) {
	t.Helper()
	sync := func() {
		req := r.MakeSyncRequest(0)
		resp := peer.HandleSyncRequest(req)
		r.ApplyBatch(resp)
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			r.CreateItem(item.Metadata{Destinations: []string{"alice"}}, []byte(fmt.Sprintf("l-%d", i)))
		case 1:
			peer.CreateItem(item.Metadata{Destinations: []string{"carol"}}, []byte(fmt.Sprintf("r-%d", i)))
			sync()
		case 2:
			if items := r.Items(); len(items) > 0 {
				pick := items[rng.Intn(len(items))]
				if _, err := r.UpdateItem(pick.ID, []byte(fmt.Sprintf("u-%d", i))); err != nil {
					t.Fatalf("update: %v", err)
				}
			}
		case 3:
			peer.CreateItem(item.Metadata{Destinations: []string{"alice"}, Created: *now, Expires: *now + int64(100+rng.Intn(400))}, []byte(fmt.Sprintf("in-%d", i)))
			sync()
		case 4:
			if items := r.Items(); len(items) > 0 {
				if _, err := r.DeleteItem(items[rng.Intn(len(items))].ID); err != nil {
					t.Fatalf("delete: %v", err)
				}
			}
		case 5:
			addrs := []string{"alice"}
			if rng.Intn(2) == 0 {
				addrs = append(addrs, "carol")
			}
			r.SetIdentity(addrs, nil)
		case 6:
			*now += int64(rng.Intn(500))
			r.PurgeExpired()
		case 7:
			peer.CreateItem(item.Metadata{Destinations: []string{"dave"}}, []byte(fmt.Sprintf("w-%d", i)))
			sync()
		}
	}
}

// TestWALMatchesSnapshotDifferential is the property itself, checked over
// quick-generated seeds so each counterexample is reproducible from the seed
// in the failure message.
func TestWALMatchesSnapshotDifferential(t *testing.T) {
	prop := func(seed int64) bool {
		return walMatchesSnapshot(t, seed)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func walMatchesSnapshot(t *testing.T, seed int64) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	now := int64(1000)
	r := replica.New(replica.Config{
		ID:             "diff-a",
		OwnAddresses:   []string{"alice"},
		RelayCapacity:  3,
		MergeKnowledge: true,
		Now:            func() int64 { return now },
	})
	peer := replica.New(replica.Config{
		ID:           "diff-b",
		OwnAddresses: []string{"bob"},
		Filter:       filter.NewAddresses("alice", "bob", "carol", "dave"),
	})

	// Random WAL shape too: tiny flush cadences make short op sequences
	// cross segment boundaries and both full and partial merges.
	opts := Options{flushEvery: []int{1, 2, 3, 256}[rng.Intn(4)]}
	fsys := NewMemFS()
	db, err := Open(fsys, opts)
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		t.Fatalf("seed %d: fresh load: %v", seed, err)
	}
	if err := db.Attach(r); err != nil {
		t.Fatalf("seed %d: attach: %v", seed, err)
	}

	randomOps(t, rng, r, peer, &now, 24+rng.Intn(32))
	if err := db.Err(); err != nil {
		t.Fatalf("seed %d: wal poisoned: %v", seed, err)
	}

	// Reference: the live replica's state at the crash instant.
	want, err := r.Snapshot()
	if err != nil {
		t.Fatalf("seed %d: snapshot: %v", seed, err)
	}

	// Hard crash: everything unsynced is gone; only what the WAL fsynced
	// before each mutating call returned survives.
	fsys.Crash()
	db2, err := Open(fsys, opts)
	if err != nil {
		t.Fatalf("seed %d: reopen: %v", seed, err)
	}
	got, err := db2.Load()
	if err != nil {
		t.Fatalf("seed %d: recover: %v", seed, err)
	}
	if d := DiffSnapshots(want, got); d != "" {
		t.Logf("seed %d: WAL recovery diverges from the live state: %s", seed, d)
		return false
	}
	return true
}
