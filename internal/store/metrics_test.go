package store

import (
	"testing"

	"replidtn/internal/item"
)

func mkTombstone(creator string, num uint64) *item.Item {
	it := mkItem(creator, num)
	it.Deleted = true
	return it
}

// checkGauges asserts the occupancy counters a replica's Stats reads agree
// with a scan of the store.
func checkGauges(t *testing.T, s *Store) {
	t.Helper()
	live, relay := countByScan(s)
	if got := s.LiveLen(); got != live {
		t.Errorf("LiveLen = %d, scan says %d", got, live)
	}
	if got := s.RelayLen(); got != relay {
		t.Errorf("RelayLen = %d, scan says %d", got, relay)
	}
	if got, want := s.TombstoneLen(), s.Len()-live; got != want {
		t.Errorf("TombstoneLen = %d, scan says %d", got, want)
	}
}

func TestMetricsGaugesTrackMutations(t *testing.T) {
	s := New(2)

	s.Put(mkItem("a", 1), nil, false, true) // local live
	s.Put(mkItem("b", 1), nil, true, false) // relay
	s.Put(mkItem("b", 2), nil, true, false) // relay
	checkGauges(t, s)

	// Third relay entry evicts the oldest relay (b/1).
	s.Put(mkItem("b", 3), nil, true, false)
	checkGauges(t, s)
	if got := s.Evicted(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}

	// Replacing a live entry with a tombstone moves live -> tombstone.
	s.Put(mkTombstone("a", 1), nil, false, true)
	checkGauges(t, s)
	if s.TombstoneLen() != 1 {
		t.Errorf("Tombstones = %d, want 1", s.TombstoneLen())
	}

	// Remove drops whatever partition the entry was in.
	s.Remove(item.ID{Creator: "a", Num: 1})
	s.Remove(item.ID{Creator: "b", Num: 2})
	checkGauges(t, s)
}

func TestMetricsGaugesSurviveRestore(t *testing.T) {
	s := New(0)
	s.Put(mkItem("a", 1), nil, false, true)
	s.Put(mkItem("a", 2), nil, true, false)
	s.Put(mkTombstone("a", 3), nil, false, false)

	donor := New(0)
	donor.Put(mkItem("z", 1), nil, true, false)
	donor.Put(mkItem("z", 2), nil, true, false)
	snap, next := donor.Snapshot()

	if err := s.Restore(snap, next); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkGauges(t, s)
	if s.LiveLen() != 2 || s.RelayLen() != 2 || s.TombstoneLen() != 0 {
		t.Errorf("post-restore gauges = %d/%d/%d, want 2/2/0",
			s.LiveLen(), s.RelayLen(), s.TombstoneLen())
	}

	// A failed restore must leave the gauges untouched.
	bad := []EntrySnapshot{{Item: nil}}
	if err := s.Restore(bad, next); err == nil {
		t.Fatal("Restore with nil item should fail")
	}
	checkGauges(t, s)
}

// TestMetricsNilIsNoOp: a store counts its evictions with nothing registered.
func TestMetricsNilIsNoOp(t *testing.T) {
	s := New(1)
	s.Put(mkItem("a", 1), nil, true, false)
	s.Put(mkItem("a", 2), nil, true, false) // evicts
	s.Remove(item.ID{Creator: "a", Num: 2})
	if s.Len() != 0 || s.Evicted() != 1 {
		t.Fatalf("Len = %d, evicted %d; want 0 and 1", s.Len(), s.Evicted())
	}
}
