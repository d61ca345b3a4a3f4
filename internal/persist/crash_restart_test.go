// Package persist holds the restart tests: replicas persisted through the
// write-ahead log (internal/persist/wal) are crashed or closed, rebuilt from
// what the log made durable, and must carry on exactly where they stopped —
// the paper's "persistent data structures which are serialized to disk and
// retrieved whenever a synchronization operation is invoked" (§V.A), and the
// at-most-once guarantee that rests on them.
package persist

import (
	"errors"
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
)

// attach opens a WAL on fsys and journals r's every mutation from now on.
// fsys must hold no state yet.
func attach(t *testing.T, fsys wal.FS, r *replica.Replica) *wal.DB {
	t.Helper()
	db, err := wal.Open(fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(); !errors.Is(err, wal.ErrNoState) {
		t.Fatalf("fresh load: %v", err)
	}
	if err := db.Attach(r); err != nil {
		t.Fatal(err)
	}
	return db
}

// recoverState reopens the WAL on fsys and returns the state it recovers.
func recoverState(t *testing.T, fsys wal.FS) (*wal.DB, *replica.Snapshot) {
	t.Helper()
	db, err := wal.Open(fsys, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db.Load()
	if err != nil {
		t.Fatal(err)
	}
	return db, snap
}

// reboot hard-crashes fsys — everything not fsynced is lost — and rebuilds
// a replica from cfg and the recovered state, journaling again.
func reboot(t *testing.T, fsys *wal.MemFS, cfg replica.Config) *replica.Replica {
	t.Helper()
	fsys.Crash()
	db, snap := recoverState(t, fsys)
	r := replica.New(cfg)
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Attach(r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCrashRestartMidRun is the end-to-end disruption scenario: a relay node
// carrying messages between two endpoints is killed mid-run — its process
// state discarded, its filesystem hard-crashed with no checkpoint — rebuilt
// by WAL replay, and the run continues. Every message must still arrive
// exactly once: the journaled knowledge stops the restarted relay from
// re-accepting what it already carried, and the journaled store lets it keep
// forwarding it.
func TestCrashRestartMidRun(t *testing.T) {
	const n = 6
	fsys := wal.NewMemFS()

	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: epidemic.New(10)})
	relayCfg := replica.Config{ID: "relay", OwnAddresses: []string{"addr:relay"}, Policy: epidemic.New(10)}
	relay := replica.New(relayCfg)
	attach(t, fsys, relay)
	delivered := make(map[item.ID]int)
	b := replica.New(replica.Config{
		ID: "b", OwnAddresses: []string{"addr:b"}, Policy: epidemic.New(10),
		OnDeliver: func(it *item.Item) { delivered[it.ID]++ },
	})

	msgs := make([]*item.Item, n)
	for i := range msgs {
		msgs[i] = a.CreateItem(item.Metadata{
			Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
		}, []byte(fmt.Sprintf("m-%d", i)))
	}

	// The relay picks up half the messages and crashes: the in-memory
	// replica is abandoned, and only what the WAL fsynced survives.
	res := replica.Encounter(a, relay, n/2)
	if res.AtoB.Sent != n/2 {
		t.Fatalf("relay picked up %d messages, want %d", res.AtoB.Sent, n/2)
	}
	relay = nil

	// Reboot from the log. The restored relay must identify as the same
	// node with the same knowledge, so the remaining sync moves only the rest.
	relay2 := reboot(t, fsys, relayCfg)
	res = replica.Encounter(a, relay2, 0)
	if res.AtoB.Sent != n-n/2 {
		t.Errorf("post-restart pickup moved %d messages, want %d (knowledge lost?)", res.AtoB.Sent, n-n/2)
	}
	if relay2.Stats().Duplicates != 0 {
		t.Errorf("restarted relay re-accepted %d known messages", relay2.Stats().Duplicates)
	}

	// The restarted relay delivers everything to b exactly once.
	replica.Encounter(relay2, b, 0)
	if len(delivered) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(delivered), n)
	}
	for _, m := range msgs {
		if delivered[m.ID] != 1 {
			t.Errorf("message %s delivered %d times, want 1", m.ID, delivered[m.ID])
		}
	}
	if b.Stats().Duplicates != 0 {
		t.Errorf("b saw %d duplicates", b.Stats().Duplicates)
	}

	// A second crash-restart after delivery changes nothing: repeat
	// encounters move nothing and deliver nothing new.
	relay3 := reboot(t, fsys, relayCfg)
	res = replica.Encounter(relay3, b, 0)
	if res.AtoB.Sent != 0 || res.BtoA.Sent != 0 {
		t.Errorf("steady-state encounter moved items: %+v", res)
	}
	for _, m := range msgs {
		if delivered[m.ID] != 1 {
			t.Errorf("message %s delivered %d times after second restart", m.ID, delivered[m.ID])
		}
	}
}

// TestCrashBeforeSaveLosesOnlyVolatileProgress: a relay that loses all of
// its state — it ran without a log, or lost its disk — boots fresh; the
// network re-sends everything and the destination still sees each message
// exactly once, because at-most-once is enforced by the *receiver's*
// knowledge, not the relay's memory.
func TestCrashBeforeSaveLosesOnlyVolatileProgress(t *testing.T) {
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: epidemic.New(10)})
	relayCfg := replica.Config{ID: "relay", OwnAddresses: []string{"addr:relay"}, Policy: epidemic.New(10)}
	relay := replica.New(relayCfg)
	delivered := 0
	b := replica.New(replica.Config{
		ID: "b", OwnAddresses: []string{"addr:b"}, Policy: epidemic.New(10),
		OnDeliver: func(*item.Item) { delivered++ },
	})
	for i := 0; i < 3; i++ {
		a.CreateItem(item.Metadata{
			Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
		}, []byte(fmt.Sprintf("v-%d", i)))
	}
	replica.Encounter(a, relay, 0)

	// Crash with nothing on disk: the relay reboots empty.
	relay = replica.New(relayCfg)
	res := replica.Encounter(a, relay, 0)
	if res.AtoB.Sent != 3 {
		t.Errorf("fresh relay re-pulled %d messages, want 3", res.AtoB.Sent)
	}
	replica.Encounter(relay, b, 0)
	if delivered != 3 || b.Stats().Duplicates != 0 {
		t.Errorf("delivered %d (want 3), duplicates %d (want 0)", delivered, b.Stats().Duplicates)
	}
}
