package store

import (
	"math/rand"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// assertRangeAbove checks RangeAbove(floor) against its specification — the
// entries of Range with Seq == 0 or Seq > floor(creator), in version order —
// and the floor callback's contract: asked once per creator, in ascending
// creator order, before fn sees that creator's first entry.
func assertRangeAbove(t *testing.T, s *Store, floor vclock.Vector) {
	t.Helper()
	want := make(map[*Entry]bool)
	s.Range(func(e *Entry) bool {
		if v := e.Item.Version; v.Seq == 0 || v.Seq > floor[v.Replica] {
			want[e] = true
		}
		return true
	})
	var asked []vclock.ReplicaID
	var prev *Entry
	got := 0
	s.RangeAbove(func(c vclock.ReplicaID) uint64 {
		if n := len(asked); n > 0 && asked[n-1] >= c {
			t.Fatalf("floor(%q) asked after floor(%q)", c, asked[n-1])
		}
		asked = append(asked, c)
		return floor[c]
	}, func(e *Entry) bool {
		if !want[e] {
			t.Fatalf("RangeAbove yielded %s@%s, which floor %s covers (or which is not stored)", e.Item.ID, e.Item.Version, floor)
		}
		if len(asked) == 0 || asked[len(asked)-1] != e.Item.Version.Replica {
			t.Fatalf("fn saw %s@%s before floor(%q) was asked", e.Item.ID, e.Item.Version, e.Item.Version.Replica)
		}
		if prev != nil && orderByVersion(prev, e) >= 0 {
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
// both indexes hold exactly the store's entries and that RangeAbove agrees
// with a filtered Range under random floors.
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
		if s.index.size != s.Len() || s.byVersion.size != s.Len() {
			t.Fatalf("step %d: index sizes %d/%d, store holds %d", step, s.index.size, s.byVersion.size, s.Len())
		}
		checkIndexInvariants(t, &s.index)
		checkIndexInvariants(t, &s.byVersion)
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

// examinedAbove runs RangeAbove's walk and returns how many entries it
// examined.
func examinedAbove(s *Store, floor func(vclock.ReplicaID) uint64, fn func(*Entry) bool) int {
	w := aboveWalk{floor: floor, fn: fn}
	w.walk(s.byVersion.root, nil, nil)
	return w.examined
}

// TestRangeAboveExaminesSublinear pins the walk's cost with a count, not a
// clock: over a 50k-entry store whose target knows all but k versions, the
// walk may examine the k unknown entries, the nodes holding them, and the
// nodes along each creator run's two boundaries — O(k + fan-out × height) —
// and nothing proportional to the store.
func TestRangeAboveExaminesSublinear(t *testing.T) {
	const perCreator = 10000
	creators := []string{"a", "b", "c", "d", "e"}
	s := New(0)
	for _, c := range creators {
		for i := uint64(1); i <= perCreator; i++ {
			s.Put(mkItem(c, i), nil, false, false)
		}
	}
	height := checkIndexInvariants(t, &s.byVersion)
	boundary := 2 * len(creators) * height * indexMaxItems
	for _, k := range []uint64{0, 1, 10, 1000} {
		floor := func(vclock.ReplicaID) uint64 { return perCreator - k }
		yielded := 0
		examined := examinedAbove(s, floor, func(*Entry) bool {
			yielded++
			return true
		})
		unknown := int(k) * len(creators)
		if yielded != unknown {
			t.Fatalf("k=%d: yielded %d entries, want %d", k, yielded, unknown)
		}
		if limit := 2*unknown + boundary; examined > limit {
			t.Errorf("k=%d: examined %d of %d entries, want at most %d (2·unknown + 2·runs·height·fan-out, height %d)",
				k, examined, s.Len(), limit, height)
		}
		t.Logf("k=%d: yielded %d, examined %d of %d", k, yielded, examined, s.Len())
	}
	// With nothing known the walk is a full ascend: every entry once.
	if examined := examinedAbove(s, func(vclock.ReplicaID) uint64 { return 0 }, func(*Entry) bool { return true }); examined != s.Len() {
		t.Errorf("empty floor: examined %d entries, store holds %d", examined, s.Len())
	}
}
