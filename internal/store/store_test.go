package store

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

func mkItem(creator string, num uint64) *item.Item {
	return &item.Item{
		ID:      item.ID{Creator: vclock.ReplicaID(creator), Num: num},
		Version: vclock.Version{Replica: vclock.ReplicaID(creator), Seq: num},
		Meta:    item.Metadata{Kind: "message"},
	}
}

func TestPutGet(t *testing.T) {
	s := New(0)
	it := mkItem("a", 1)
	if ev := s.Put(it, nil, false, false); len(ev) != 0 {
		t.Fatalf("unexpected eviction: %v", ev)
	}
	e := s.Get(it.ID)
	if e == nil || e.Item != it {
		t.Fatal("Get should return the stored entry")
	}
	if s.Len() != 1 || s.LiveLen() != 1 || s.RelayLen() != 0 {
		t.Errorf("counts = %d/%d/%d", s.Len(), s.LiveLen(), s.RelayLen())
	}
}

func TestPutReplaceKeepsArrival(t *testing.T) {
	s := New(0)
	s.Put(mkItem("a", 1), nil, true, false)
	first := s.Get(item.ID{Creator: "a", Num: 1}).Arrival()
	s.Put(mkItem("b", 1), nil, true, false)
	s.Put(mkItem("a", 1), nil, true, false) // replace
	if got := s.Get(item.ID{Creator: "a", Num: 1}).Arrival(); got != first {
		t.Errorf("replacement moved arrival %d -> %d", first, got)
	}
}

func TestRelayFIFOEviction(t *testing.T) {
	s := New(2)
	e1, e2, e3 := mkItem("a", 1), mkItem("a", 2), mkItem("a", 3)
	s.Put(e1, nil, true, false)
	s.Put(e2, nil, true, false)
	evicted := s.Put(e3, nil, true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != e1.ID {
		t.Fatalf("expected FIFO eviction of oldest relay, got %v", evicted)
	}
	if s.Get(e1.ID) != nil {
		t.Error("evicted entry still present")
	}
	if s.RelayLen() != 2 {
		t.Errorf("RelayLen = %d, want 2", s.RelayLen())
	}
}

func TestEvictionSparesInFilterEntries(t *testing.T) {
	s := New(1)
	own := mkItem("me", 1)
	s.Put(own, nil, false, false) // in-filter: sender/destination copy
	r1, r2 := mkItem("a", 1), mkItem("a", 2)
	s.Put(r1, nil, true, false)
	evicted := s.Put(r2, nil, true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != r1.ID {
		t.Fatalf("expected relay r1 evicted, got %v", evicted)
	}
	if s.Get(own.ID) == nil {
		t.Error("in-filter entry must never be evicted")
	}
}

func TestEvictionIgnoresTombstones(t *testing.T) {
	s := New(1)
	dead := mkItem("a", 1)
	dead.Deleted = true
	s.Put(dead, nil, true, false)
	live := mkItem("a", 2)
	if ev := s.Put(live, nil, true, false); len(ev) != 0 {
		t.Fatalf("tombstones must not count toward capacity, evicted %v", ev)
	}
	if s.RelayLen() != 1 {
		t.Errorf("RelayLen = %d, want 1 (tombstone excluded)", s.RelayLen())
	}
	if s.LiveLen() != 1 {
		t.Errorf("LiveLen = %d, want 1", s.LiveLen())
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	s := New(0)
	for i := uint64(1); i <= 100; i++ {
		if ev := s.Put(mkItem("a", i), nil, true, false); len(ev) != 0 {
			t.Fatal("unlimited store must never evict")
		}
	}
	if s.RelayLen() != 100 {
		t.Errorf("RelayLen = %d", s.RelayLen())
	}
}

func TestRemove(t *testing.T) {
	s := New(0)
	it := mkItem("a", 1)
	s.Put(it, nil, false, false)
	if e := s.Remove(it.ID); e == nil || e.Item != it {
		t.Error("Remove should return the removed entry")
	}
	if s.Remove(it.ID) != nil {
		t.Error("second Remove should return nil")
	}
	if s.Len() != 0 {
		t.Error("store should be empty after Remove")
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	s := New(0)
	s.Put(mkItem("b", 1), nil, false, false)
	s.Put(mkItem("a", 2), nil, false, false)
	s.Put(mkItem("a", 1), nil, false, false)
	got := s.Entries()
	want := []string{"a/1", "a/2", "b/1"}
	for i, e := range got {
		if e.Item.ID.String() != want[i] {
			t.Errorf("Entries()[%d] = %s, want %s", i, e.Item.ID, want[i])
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(0)
	for i := uint64(1); i <= 5; i++ {
		s.Put(mkItem("a", i), nil, false, false)
	}
	n := 0
	s.Range(func(*Entry) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("Range visited %d entries, want 3", n)
	}
}

func TestEvictionEnforcedOnEveryPut(t *testing.T) {
	// Flipping in-filter entries to relay raises the relay population; each
	// Put must restore the invariant immediately, oldest relay first.
	s := New(1)
	a, b, c := mkItem("a", 1), mkItem("a", 2), mkItem("a", 3)
	s.Put(a, nil, true, false)
	s.Put(b, nil, false, false)
	s.Put(c, nil, false, false)
	if ev := s.Put(b, nil, true, false); len(ev) != 1 || ev[0].Item.ID != a.ID {
		t.Fatalf("expected eviction of a, got %v", ev)
	}
	if ev := s.Put(c, nil, true, false); len(ev) != 1 || ev[0].Item.ID != b.ID {
		t.Fatalf("expected eviction of b, got %v", ev)
	}
	if s.RelayLen() != 1 {
		t.Errorf("RelayLen = %d, want 1", s.RelayLen())
	}
}

func TestEvictByCostPrefersHighestCost(t *testing.T) {
	s := NewWithEviction(2, EvictByCost{Field: item.FieldHops})
	cheap := mkItem("a", 1)
	costly := mkItem("a", 2)
	s.Put(cheap, with(item.FieldHops, 1), true, false)
	s.Put(costly, with(item.FieldHops, 9), true, false)
	third := mkItem("a", 3)
	evicted := s.Put(third, with(item.FieldHops, 2), true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != costly.ID {
		t.Fatalf("expected highest-cost eviction, got %v", evicted)
	}
	if s.Get(cheap.ID) == nil || s.Get(third.ID) == nil {
		t.Error("low-cost entries should survive")
	}
}

func TestEvictByCostMissingFieldStaysLongest(t *testing.T) {
	s := NewWithEviction(1, EvictByCost{Field: item.FieldHops})
	unknown := mkItem("a", 1)
	s.Put(unknown, nil, true, false)
	known := mkItem("a", 2)
	evicted := s.Put(known, with(item.FieldHops, 1), true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != known.ID {
		t.Fatalf("costed entry should go before uncosted, got %v", evicted)
	}
}

func TestEvictByCostTieBreaksFIFO(t *testing.T) {
	s := NewWithEviction(1, EvictByCost{Field: item.FieldHops})
	first := mkItem("a", 1)
	second := mkItem("a", 2)
	s.Put(first, with(item.FieldHops, 3), true, false)
	evicted := s.Put(second, with(item.FieldHops, 3), true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != first.ID {
		t.Fatalf("equal cost should evict FIFO, got %v", evicted)
	}
}

func TestEvictionStrategyNames(t *testing.T) {
	if (FIFO{}).Name() != "fifo" {
		t.Error("FIFO name")
	}
	if (EvictByCost{Field: item.FieldHops}).Name() != "cost(hops)" {
		t.Error("EvictByCost name")
	}
}

func TestNewWithNilEvictionDefaultsFIFO(t *testing.T) {
	s := NewWithEviction(1, nil)
	a, b := mkItem("a", 1), mkItem("a", 2)
	s.Put(a, nil, true, false)
	evicted := s.Put(b, nil, true, false)
	if len(evicted) != 1 || evicted[0].Item.ID != a.ID {
		t.Fatalf("nil strategy should behave as FIFO, got %v", evicted)
	}
}

// countByScan recomputes the maintained counters the way the pre-index store
// did, by scanning every entry.
func countByScan(s *Store) (live, relay int) {
	for _, e := range s.entries {
		if !e.Item.Deleted {
			live++
		}
		if e.Relay && !e.Item.Deleted {
			relay++
		}
	}
	return live, relay
}

// TestCountersConsistent drives the store through random Put/Remove and
// live↔tombstone transitions and checks the O(1) counters against a full
// scan after every operation.
func TestCountersConsistent(t *testing.T) {
	for _, cap := range []int{0, 3} {
		s := New(cap)
		rng := uint64(1)
		next := func(n uint64) uint64 { // xorshift, deterministic
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng % n
		}
		for op := 0; op < 4000; op++ {
			id := next(24) + 1
			it := mkItem("a", id)
			switch next(6) {
			case 0:
				s.Remove(it.ID)
			case 1: // tombstone
				it.Deleted = true
				s.Put(it, nil, next(2) == 0, next(2) == 0)
			default: // live put: relay, local, or in-filter
				s.Put(it, nil, next(2) == 0, next(3) == 0)
			}
			live, relay := countByScan(s)
			if s.LiveLen() != live {
				t.Fatalf("op %d: LiveLen %d, scan %d", op, s.LiveLen(), live)
			}
			if s.RelayLen() != relay {
				t.Fatalf("op %d: RelayLen %d, scan %d", op, s.RelayLen(), relay)
			}
			if s.TombstoneLen() != s.Len()-live {
				t.Fatalf("op %d: TombstoneLen %d, want %d", op, s.TombstoneLen(), s.Len()-live)
			}
			if cap > 0 && relay > cap {
				t.Fatalf("op %d: relay population %d exceeds capacity %d", op, relay, cap)
			}
		}
	}
}

// TestCountersSurviveRestore verifies indexes and counters are rebuilt from a
// snapshot.
func TestCountersSurviveRestore(t *testing.T) {
	s := New(4)
	for i := uint64(1); i <= 10; i++ {
		it := mkItem("a", i)
		if i%3 == 0 {
			it.Deleted = true
		}
		s.Put(it, nil, i%2 == 0, false)
	}
	snap, next := s.Snapshot()
	restored := New(4)
	if err := restored.Restore(snap, next); err != nil {
		t.Fatal(err)
	}
	wantLive, wantRelay := countByScan(restored)
	if restored.LiveLen() != wantLive || restored.RelayLen() != wantRelay {
		t.Fatalf("restored counters %d/%d, scan %d/%d",
			restored.LiveLen(), restored.RelayLen(), wantLive, wantRelay)
	}
	if got, want := restored.Entries(), s.Entries(); len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d", len(got), len(want))
	}
	// The restored store must keep enforcing capacity with its rebuilt heap.
	for i := uint64(100); i < 110; i++ {
		restored.Put(mkItem("b", i), nil, true, false)
	}
	if restored.RelayLen() > 4 {
		t.Fatalf("restored store exceeded capacity: %d", restored.RelayLen())
	}
}

// scanFIFO is FIFO without the ArrivalOrdered marker, forcing the scan path.
type scanFIFO struct{}

func (scanFIFO) Name() string          { return "scan-fifo" }
func (scanFIFO) Less(a, b *Entry) bool { return a.arrival < b.arrival }

// TestHeapAndScanEvictIdentically mirrors one deterministic workload into a
// heap-backed store and a scan-backed store and demands identical evictions
// and identical final contents.
func TestHeapAndScanEvictIdentically(t *testing.T) {
	heapStore := New(4)
	scanStore := NewWithEviction(4, scanFIFO{})
	rng := uint64(99)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for op := 0; op < 5000; op++ {
		id := next(40) + 1
		kind := next(10)
		var relay, local bool
		var deleted bool
		switch {
		case kind == 0:
			heapStore.Remove(item.ID{Creator: "x", Num: id})
			scanStore.Remove(item.ID{Creator: "x", Num: id})
			continue
		case kind == 1:
			deleted = true
			relay = next(2) == 0
		default:
			relay = next(3) != 0
			local = next(5) == 0
		}
		mk := func() *item.Item {
			it := mkItem("x", id)
			it.Deleted = deleted
			return it
		}
		ev1 := heapStore.Put(mk(), nil, relay, local)
		ev2 := scanStore.Put(mk(), nil, relay, local)
		if len(ev1) != len(ev2) {
			t.Fatalf("op %d: heap evicted %d, scan evicted %d", op, len(ev1), len(ev2))
		}
		for i := range ev1 {
			if ev1[i].Item.ID != ev2[i].Item.ID {
				t.Fatalf("op %d: eviction %d diverges: %s vs %s",
					op, i, ev1[i].Item.ID, ev2[i].Item.ID)
			}
		}
	}
	a, b := heapStore.Entries(), scanStore.Entries()
	if len(a) != len(b) {
		t.Fatalf("final contents diverge: %d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i].Item.ID != b[i].Item.ID || a[i].Relay != b[i].Relay {
			t.Fatalf("entry %d diverges: %s/%v vs %s/%v",
				i, a[i].Item.ID, a[i].Relay, b[i].Item.ID, b[i].Relay)
		}
	}
}

// BenchmarkStorePut measures Put into a store holding n entries. The bounded
// variants keep the store at its relay capacity, so every Put evicts — the
// steady state of the paper's storage-constrained experiments.
func BenchmarkStorePut(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		for _, bounded := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/bounded=%v", n, bounded)
			b.Run(name, func(b *testing.B) {
				cap := 0
				if bounded {
					cap = n
				}
				s := New(cap)
				for i := 0; i < n; i++ {
					s.Put(mkItem("seed", uint64(i+1)), nil, true, false)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Put(mkItem("a", uint64(i+1)), nil, true, false)
				}
			})
		}
	}
}

func BenchmarkStoreEntries(b *testing.B) {
	s := New(0)
	for i := uint64(1); i <= 500; i++ {
		s.Put(mkItem(fmt.Sprintf("r%d", i%7), i), nil, false, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Entries()
	}
}

// TestLiveNotify checks the live-copy observer against every transition kind:
// insert, live→live replace, tombstone, outright removal, capacity eviction,
// and wholesale Restore (which must stay silent).
func TestLiveNotify(t *testing.T) {
	counts := make(map[item.ID]int)
	var fires int
	s := New(1)
	s.LiveNotify(func(id item.ID, delta int) {
		counts[id] += delta
		fires++
	})

	local := mkItem("a", 1)
	s.Put(local, nil, false, true)
	if counts[local.ID] != 1 {
		t.Errorf("after insert: count = %d, want 1", counts[local.ID])
	}

	// Live→live replacement fires -1 then +1: net zero change.
	before := fires
	s.Put(mkItem("a", 1), nil, false, true)
	if counts[local.ID] != 1 || fires != before+2 {
		t.Errorf("after replace: count = %d (want 1), fires = %d (want %d)",
			counts[local.ID], fires, before+2)
	}

	// Tombstoning a live entry nets -1; inserting a tombstone stays silent.
	dead := mkItem("a", 1)
	dead.Deleted = true
	s.Put(dead, nil, false, true)
	if counts[local.ID] != 0 {
		t.Errorf("after tombstone: count = %d, want 0", counts[local.ID])
	}
	before = fires
	ghost := mkItem("g", 1)
	ghost.Deleted = true
	s.Put(ghost, nil, false, false)
	if fires != before {
		t.Error("inserting a tombstone should not notify")
	}

	// Relay capacity 1: the second relay insert evicts the first (-1).
	r1, r2 := mkItem("r", 1), mkItem("r", 2)
	s.Put(r1, nil, true, false)
	s.Put(r2, nil, true, false)
	if counts[r1.ID] != 0 || counts[r2.ID] != 1 {
		t.Errorf("after eviction: counts = %d/%d, want 0/1", counts[r1.ID], counts[r2.ID])
	}

	// Removal fires -1.
	s.Remove(r2.ID)
	if counts[r2.ID] != 0 {
		t.Errorf("after remove: count = %d, want 0", counts[r2.ID])
	}

	// Restore replaces wholesale without notifying.
	snap, next := s.Snapshot()
	before = fires
	if err := s.Restore(snap, next); err != nil {
		t.Fatal(err)
	}
	if fires != before {
		t.Error("Restore should not notify")
	}

	// Invariant: every id's running sum matches live presence.
	for id, n := range counts {
		e := s.Get(id)
		live := e != nil && !e.Item.Deleted
		if (n == 1) != live || n < 0 || n > 1 {
			t.Errorf("id %v: sum %d, live %v", id, n, live)
		}
	}
}

// with returns a transient holding one field, as Put takes it.
func with(f item.Field, v int) *item.Transient {
	var t item.Transient
	t.Set(f, v)
	return &t
}
