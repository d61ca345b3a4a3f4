package store

import (
	"testing"

	"replidtn/internal/item"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(3)
	a, b := mkItem("x", 1), mkItem("y", 1)
	s.Put(a, with(item.FieldTTL, 5), true, false)
	s.Put(b, nil, false, true)
	dead := mkItem("z", 1)
	dead.Deleted = true
	s.Put(dead, nil, false, false)

	entries, next := s.Snapshot()
	if len(entries) != 3 {
		t.Fatalf("snapshot has %d entries", len(entries))
	}

	restored := New(3)
	if err := restored.Restore(entries, next); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 || restored.LiveLen() != 2 || restored.RelayLen() != 1 {
		t.Errorf("counts = %d/%d/%d", restored.Len(), restored.LiveLen(), restored.RelayLen())
	}
	ea := restored.Get(a.ID)
	if ea == nil || !ea.Relay || ea.Transient.Map()[item.FieldTTL] != 5 {
		t.Errorf("entry a mismatched: %+v", ea)
	}
	eb := restored.Get(b.ID)
	if eb == nil || !eb.Local || eb.Relay {
		t.Errorf("entry b mismatched: %+v", eb)
	}
	// FIFO order survives: the next relay put evicts a (the oldest) once
	// capacity shrinks to 1.
	tight := New(1)
	if err := tight.Restore(entries, next); err != nil {
		t.Fatal(err)
	}
	ev := tight.Put(mkItem("w", 1), nil, true, false)
	if len(ev) != 1 || ev[0].Item.ID != a.ID {
		t.Errorf("restored FIFO order broken: evicted %v", ev)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := New(0)
	it := mkItem("x", 1)
	s.Put(it, with(item.FieldTTL, 9), false, false)
	entries, _ := s.Snapshot()
	entries[0].Item.Payload = []byte("mutated")
	entries[0].Transient[item.FieldTTL] = 1
	if got := s.Get(it.ID); got.Transient.Map()[item.FieldTTL] != 9 || len(got.Item.Payload) != 0 {
		t.Error("snapshot shares storage with the live store")
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := New(0)
	good, next := func() ([]EntrySnapshot, uint64) {
		tmp := New(0)
		tmp.Put(mkItem("x", 1), nil, false, false)
		return tmp.Snapshot()
	}()
	cases := []struct {
		name    string
		entries []EntrySnapshot
		next    uint64
	}{
		{"nil item", []EntrySnapshot{{}}, 1},
		{"duplicate id", append(append([]EntrySnapshot(nil), good...), good...), next},
		{"arrival beyond counter", good, 0},
		// Two entries of one arrival would leave FIFO eviction to pick
		// between them in map order.
		{"duplicate arrival", []EntrySnapshot{
			{Item: mkItem("a", 1), Relay: true, Arrival: 1},
			{Item: mkItem("b", 1), Relay: true, Arrival: 1},
		}, 1},
	}
	for _, tc := range cases {
		if err := s.Restore(tc.entries, tc.next); err == nil {
			t.Errorf("%s: Restore should fail", tc.name)
		}
	}
	if s.Len() != 0 {
		t.Error("failed restore must leave the store unchanged")
	}
}

func TestRelayCapacityAccessor(t *testing.T) {
	if New(7).RelayCapacity() != 7 {
		t.Error("RelayCapacity accessor mismatch")
	}
}
