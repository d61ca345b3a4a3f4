package store

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// checkRuns verifies the version runs against the store: one non-empty run
// per creator, each at its slot and found through runOf, each a valid B-tree
// holding exactly that creator's current entries under an accurate top, and
// together every entry once. It returns the tallest run's height.
func checkRuns(t *testing.T, s *Store) int {
	t.Helper()
	if len(s.runOf) != len(s.runs) {
		t.Fatalf("%d runs listed, %d found by creator", len(s.runs), len(s.runOf))
	}
	height, total := 0, 0
	for i, r := range s.runs {
		if r.slot != i || s.runOf[r.creator] != r {
			t.Fatalf("run %q listed at %d has slot %d (found by creator: %v)", r.creator, i, r.slot, s.runOf[r.creator] == r)
		}
		if r.entries.size == 0 {
			t.Fatalf("empty run %q kept", r.creator)
		}
		height = max(height, checkIndexInvariants(t, &r.entries))
		r.entries.ascend(func(e *Entry) bool {
			if e.Item.Version.Replica != r.creator || s.entries[e.Item.ID] != e {
				t.Fatalf("run %q holds %s@%s, which is not a current entry of that creator", r.creator, e.Item.ID, e.Item.Version)
			}
			return true
		})
		if want := runKey(r.entries.last()); r.top != want {
			t.Fatalf("run %q: top %d, largest key %d", r.creator, r.top, want)
		}
		total += r.entries.size
	}
	if total != s.Len() {
		t.Fatalf("runs hold %d entries, store holds %d", total, s.Len())
	}
	return height
}

// assertRangeAbove checks RangeAbove(floor) against its specification — the
// entries of Range with Seq == 0 or Seq > floor(creator), each creator's
// together in run order — and the floor callback's contract: asked once per
// creator, just before fn sees that creator's first entry.
func assertRangeAbove(t *testing.T, s *Store, floor vclock.Vector) {
	t.Helper()
	want := make(map[*Entry]bool)
	s.Range(func(e *Entry) bool {
		if v := e.Item.Version; v.Seq == 0 || v.Seq > floor[v.Replica] {
			want[e] = true
		}
		return true
	})
	asked := make(map[vclock.ReplicaID]bool)
	var last vclock.ReplicaID
	var prev *Entry
	got := 0
	s.RangeAbove(func(c vclock.ReplicaID) uint64 {
		if asked[c] {
			t.Fatalf("floor(%q) asked twice", c)
		}
		asked[c], last, prev = true, c, nil
		return floor[c]
	}, func(e *Entry) bool {
		if !want[e] {
			t.Fatalf("RangeAbove yielded %s@%s, which floor %s covers (or which is not stored)", e.Item.ID, e.Item.Version, floor)
		}
		if e.Item.Version.Replica != last {
			t.Fatalf("fn saw %s@%s, but the last floor asked was %q's", e.Item.ID, e.Item.Version, last)
		}
		if prev != nil && orderInRun(prev, e) >= 0 {
			t.Fatalf("RangeAbove out of order: %s then %s", prev.Item.Version, e.Item.Version)
		}
		prev = e
		got++
		return true
	})
	if got != len(want) {
		t.Fatalf("RangeAbove yielded %d entries, want %d (floor %s)", got, len(want), floor)
	}
}

// TestRangeAboveMatchesRange drives a capacity-bounded store through random
// inserts, version-changing replacements, removals, evictions and wholesale
// restores — including a snapshot in which two IDs carry one version, which
// only the ID tie-break keeps apart — and after every few steps demands that
// the ID index and the version runs hold exactly the store's entries and that
// RangeAbove agrees with a filtered Range under random floors.
func TestRangeAboveMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(300)
	creators := []string{"a", "b", "c", "d", "e", "f", "g"}
	seqs := make(map[string]uint64)
	randomItem := func() *item.Item {
		it := mkItem(creators[rng.Intn(len(creators))], uint64(rng.Intn(400)+1))
		// A fresh version from a random writer, so Num != Seq, an item's
		// version moves between creator runs on update, and the replaced
		// entry's old key must leave the version index.
		w := creators[rng.Intn(len(creators))]
		seqs[w]++
		it.Version = vclock.Version{Replica: vclock.ReplicaID(w), Seq: seqs[w]}
		if rng.Intn(40) == 0 {
			it.Version.Seq = 0
		}
		it.Deleted = rng.Intn(10) == 0
		return it
	}
	check := func(step int) {
		t.Helper()
		if s.index.size != s.Len() {
			t.Fatalf("step %d: ID index holds %d, store holds %d", step, s.index.size, s.Len())
		}
		checkIndexInvariants(t, &s.index)
		checkRuns(t, s)
		for _, floor := range []vclock.Vector{{}, nil} {
			assertRangeAbove(t, s, floor)
		}
		floor := vclock.Vector{}
		for _, c := range creators {
			if rng.Intn(4) > 0 {
				floor[vclock.ReplicaID(c)] = uint64(rng.Int63n(int64(seqs[c]) + 2))
			}
		}
		assertRangeAbove(t, s, floor)
		for _, c := range creators {
			floor[vclock.ReplicaID(c)] = seqs[c]
		}
		assertRangeAbove(t, s, floor) // everything but seq 0 covered
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(20); {
		case op < 14:
			s.Put(randomItem(), nil, rng.Intn(3) > 0, false)
		case op < 19:
			s.Remove(item.ID{Creator: vclock.ReplicaID(creators[rng.Intn(len(creators))]), Num: uint64(rng.Intn(400) + 1)})
		default:
			snap, next := s.Snapshot()
			if len(snap) > 1 {
				// Forge a duplicate version under a second ID.
				i, j := rng.Intn(len(snap)), rng.Intn(len(snap))
				snap[j].Item.Version = snap[i].Item.Version
			}
			if err := s.Restore(snap, next); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
		}
		if step%50 == 0 {
			check(step)
		}
	}
	check(6000)
}

// TestRangeAboveEarlyStop verifies the pruned walk halts when fn returns
// false.
func TestRangeAboveEarlyStop(t *testing.T) {
	s := New(0)
	for i := uint64(1); i <= 2000; i++ {
		s.Put(mkItem("a", i), nil, false, false)
	}
	n := 0
	s.RangeAbove(func(vclock.ReplicaID) uint64 { return 1000 }, func(e *Entry) bool {
		if e.Item.Version.Seq <= 1000 {
			t.Fatalf("yielded covered version %s", e.Item.Version)
		}
		n++
		return n < 7
	})
	if n != 7 {
		t.Fatalf("early stop visited %d entries, want 7", n)
	}
}

// TestRangeAboveExaminesSublinear pins the walk's cost with a count, not a
// clock, on both store shapes that matter: a few long creator runs (5 × 10k,
// a hub's) and many short ones (26 × 15, the paper trace's: 26 buses, ≈ 15
// stored versions each). A run the target knows entirely costs no entry; any
// other one descent — a binary search per level — plus what it yields. So
// with everything known the walk examines at most runs × (height + 1)
// entries, and never anything proportional to the store.
func TestRangeAboveExaminesSublinear(t *testing.T) {
	for _, shape := range []struct{ creators, perCreator int }{{5, 10000}, {26, 15}} {
		s := New(0)
		for c := 0; c < shape.creators; c++ {
			for i := 1; i <= shape.perCreator; i++ {
				s.Put(mkItem(fmt.Sprintf("c%02d", c), uint64(i)), nil, false, false)
			}
		}
		height := checkRuns(t, s)
		for _, k := range []int{0, 1, 10, 1000} {
			if k > shape.perCreator {
				continue
			}
			floor := func(vclock.ReplicaID) uint64 { return uint64(shape.perCreator - k) }
			yielded := 0
			examined := s.RangeAbove(floor, func(*Entry) bool {
				yielded++
				return true
			})
			unknown := k * shape.creators
			if yielded != unknown {
				t.Fatalf("%d×%d, k=%d: yielded %d entries, want %d", shape.creators, shape.perCreator, k, yielded, unknown)
			}
			limit := unknown + shape.creators*height*bits.Len(indexMaxItems)
			if k == 0 {
				limit = shape.creators * (height + 1)
			}
			if examined > limit {
				t.Errorf("%d×%d, k=%d: examined %d of %d entries, want at most %d (height %d)",
					shape.creators, shape.perCreator, k, examined, s.Len(), limit, height)
			}
			t.Logf("%d×%d, k=%d: yielded %d, examined %d of %d", shape.creators, shape.perCreator, k, yielded, examined, s.Len())
		}
		// With nothing known the walk is a full ascend: every entry once.
		if examined := s.RangeAbove(func(vclock.ReplicaID) uint64 { return 0 }, func(*Entry) bool { return true }); examined != s.Len() {
			t.Errorf("%d×%d, empty floor: examined %d entries, store holds %d", shape.creators, shape.perCreator, examined, s.Len())
		}
	}
}
