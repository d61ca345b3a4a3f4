package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// checkRuns verifies the version runs against the store: in the main set
// and in every destination's, one non-empty run per creator, each at its
// slot and found through runOf, each a valid B-tree holding only current
// entries of that creator under an accurate top; the destinations' sets in
// strictly ascending address order, none empty, each holding only entries
// that name it; every run counting exactly its entries that break ID order.
// Together they file every current entry once in its creator's main run
// unless the predicate accepts it, and once under each of its distinct
// destinations if the predicate accepts it or the store files every live
// entry there too — never a tombstone. It returns the tallest run's height.
func checkRuns(t *testing.T, s *Store) int {
	t.Helper()
	filed := make(map[*Entry]int)
	height := checkRunSet(t, s, &s.main, filed)
	for i, rs := range s.destSets {
		if i > 0 && s.destSets[i-1].to >= rs.to {
			t.Fatalf("destination %q listed after %q", rs.to, s.destSets[i-1].to)
		}
		if j := s.destSet(rs.to); j != i || s.destOf[rs.to] != rs {
			t.Fatalf("destination %q listed at %d, found at %d, by address %v", rs.to, i, j, s.destOf[rs.to] == rs)
		}
		if len(rs.runs) == 0 {
			t.Fatalf("empty destination set %q kept", rs.to)
		}
		height = max(height, checkRunSet(t, s, rs, filed))
	}
	if len(s.destOf) != len(s.destSets) {
		t.Fatalf("%d destinations found by address, %d listed", len(s.destOf), len(s.destSets))
	}
	if len(filed) != s.Len() {
		t.Fatalf("runs hold %d distinct entries, store holds %d", len(filed), s.Len())
	}
	for e, n := range filed {
		want := 0
		if e.inMain {
			want++
		}
		if e.byDest {
			for i, d := range e.Item.Meta.Destinations {
				if !slices.Contains(e.Item.Meta.Destinations[:i], d) {
					want++
				}
			}
		}
		if n != want {
			t.Fatalf("%s@%s (by destination %v, main %v) filed %d times, want %d", e.Item.ID, e.Item.Version, e.byDest, e.inMain, n, want)
		}
		only := s.filesByDest(e)
		if e.inMain == only || e.byDest != (only || s.destToo && !e.Item.Deleted && len(e.Item.Meta.Destinations) > 0) {
			t.Fatalf("%s@%s (deleted: %v) filed by destination %v, main %v; the predicate says %v", e.Item.ID, e.Item.Version, e.Item.Deleted, e.byDest, e.inMain, only)
		}
	}
	return height
}

// checkRunSet checks one set's runs for checkRuns, counting each entry it
// holds into filed.
func checkRunSet(t *testing.T, s *Store, rs *runSet, filed map[*Entry]int) int {
	t.Helper()
	if len(rs.runOf) != len(rs.runs) {
		t.Fatalf("set %q: %d runs listed, %d found by creator", rs.to, len(rs.runs), len(rs.runOf))
	}
	height := 0
	for i, r := range rs.runs {
		if r.slot != i || rs.runOf[r.creator] != r {
			t.Fatalf("set %q: run %q listed at %d has slot %d (found by creator: %v)", rs.to, r.creator, i, r.slot, rs.runOf[r.creator] == r)
		}
		if r.entries.size == 0 {
			t.Fatalf("set %q: empty run %q kept", rs.to, r.creator)
		}
		height = max(height, checkIndexInvariants(t, &r.entries))
		disorder := 0
		r.entries.ascend(func(e *Entry) bool {
			if e.Item.Version.Replica != r.creator || s.entries[e.Item.ID] != e {
				t.Fatalf("set %q: run %q holds %s@%s, which is not a current entry of that creator", rs.to, r.creator, e.Item.ID, e.Item.Version)
			}
			if rs.to == "" && !e.inMain || rs.to != "" && (!e.byDest || !slices.Contains(e.Item.Meta.Destinations, rs.to)) {
				t.Fatalf("set %q holds %s@%s, filed by destination %v to %v, main %v", rs.to, e.Item.ID, e.Item.Version, e.byDest, e.Item.Meta.Destinations, e.inMain)
			}
			if v := e.Item.Version; !e.byDest || v.Seq == 0 || e.Item.ID != (item.ID{Creator: v.Replica, Num: v.Seq}) {
				disorder++
			}
			filed[e]++
			return true
		})
		if r.disorder != disorder {
			t.Fatalf("set %q: run %q counts %d entries out of ID order, holds %d", rs.to, r.creator, r.disorder, disorder)
		}
		last := r.entries.rightmost().entries
		if want := runKey(last[len(last)-1]); r.top != want {
			t.Fatalf("set %q: run %q: top %d, largest key %d", rs.to, r.creator, r.top, want)
		}
	}
	return height
}

// lastCopy is the destination predicate the store tests register: Spray's,
// a copy with one allowance left.
func lastCopy(e *Entry) bool {
	c, ok := e.Transient.Get(item.FieldCopies)
	return ok && c < 2
}

// assertRangeAbove checks the three walks against their specification under
// floor. RangeAbove and RangeAboveDestinations together yield the entries of
// Range with Seq == 0 or Seq > floor(creator), each once: the first those in
// the main runs, the second those filed under their destinations alone,
// under the first one. RangeAboveTo(d) yields those filed under d. Every
// walk goes run by run in run order, asking floor just before fn sees a
// run's first entry; RangeAbove asks once per creator. Along a run reported
// ordered, item IDs rise.
func assertRangeAbove(t *testing.T, s *Store, floor map[vclock.ReplicaID]uint64) {
	t.Helper()
	want := make(map[*Entry]bool)
	s.Range(func(e *Entry) bool {
		if v := e.Item.Version; v.Seq == 0 || v.Seq > floor[v.Replica] {
			want[e] = true
		}
		return true
	})
	got := make(map[*Entry]int)
	walk := func(name string, filed func(*Entry) bool, rangeAbove func(func(vclock.ReplicaID, bool) uint64, func(*Entry) bool) int) {
		t.Helper()
		asked := make(map[vclock.ReplicaID]bool)
		var last vclock.ReplicaID
		var ordered bool
		var prev *Entry
		rangeAbove(func(c vclock.ReplicaID, o bool) uint64 {
			if asked[c] && name == "RangeAbove" {
				t.Fatalf("%s: floor(%q) asked twice", name, c)
			}
			asked[c], last, ordered, prev = true, c, o, nil
			return floor[c]
		}, func(e *Entry) bool {
			if !want[e] || !filed(e) {
				t.Fatalf("%s yielded %s@%s (filed by destination: %v, main %v), which floor %v covers (or which is not stored)",
					name, e.Item.ID, e.Item.Version, e.byDest, e.inMain, floor)
			}
			if e.Item.Version.Replica != last {
				t.Fatalf("%s: fn saw %s@%s, but the last floor asked was %q's", name, e.Item.ID, e.Item.Version, last)
			}
			if prev != nil && (orderInRun(prev, e) >= 0 || ordered && orderByID(prev, e) >= 0) {
				t.Fatalf("%s out of order: %s@%s then %s@%s (ordered run: %v)", name, prev.Item.ID, prev.Item.Version, e.Item.ID, e.Item.Version, ordered)
			}
			prev = e
			got[e]++
			return true
		})
	}
	walk("RangeAbove", func(e *Entry) bool { return e.inMain }, s.RangeAbove)
	walk("RangeAboveDestinations", func(e *Entry) bool { return !e.inMain }, s.RangeAboveDestinations)
	for e, n := range got {
		if n != 1 {
			t.Fatalf("%s@%s yielded %d times", e.Item.ID, e.Item.Version, n)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the walks yielded %d entries, want %d (floor %v)", len(got), len(want), floor)
	}
	for _, rs := range s.destSets {
		to := rs.to
		clear(got)
		walk("RangeAboveTo("+to+")", func(e *Entry) bool { return e.byDest }, func(floor func(vclock.ReplicaID, bool) uint64, fn func(*Entry) bool) int {
			return s.RangeAboveTo(to, floor, fn)
		})
		for e := range want {
			if named := e.byDest && slices.Contains(e.Item.Meta.Destinations, to); named != (got[e] == 1) {
				t.Fatalf("RangeAboveTo(%s) yielded %s@%s (to %v) %d times", to, e.Item.ID, e.Item.Version, e.Item.Meta.Destinations, got[e])
			}
		}
	}
}

// TestRangeAboveMatchesRange drives a capacity-bounded store through random
// inserts, version-changing replacements, removals, evictions, refiles and
// wholesale restores — including a snapshot in which two IDs carry one
// version, which only the ID tie-break keeps apart — and after every few
// steps demands that the ID index and the version runs, main and per
// destination, hold exactly the store's entries and that the walks agree
// with a filtered Range under random floors. Entries have no destination,
// one, two, or one named twice; the ones at their last copy are filed under
// their destinations, on insertion or by Refile, and in a second store every
// other live one is filed both there and in the main runs from halfway on,
// when FileUnderDestinations refiles what the store holds. A third of the
// entries are unmodified originals of one creator, so some runs stay in ID
// order.
func TestRangeAboveMatchesRange(t *testing.T) {
	for _, also := range []bool{false, true} {
		t.Run(fmt.Sprintf("also-by-destination=%v", also), func(t *testing.T) { rangeAboveMatchesRange(t, also) })
	}
}

func rangeAboveMatchesRange(t *testing.T, also bool) {
	rng := rand.New(rand.NewSource(7))
	s := New(300)
	s.DestinationOnly(lastCopy)
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
		switch rng.Intn(40) {
		case 0:
			it.Version.Seq = 0
		case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13:
			it = mkItem("o", uint64(rng.Intn(400)+1)) // only ever an original
		}
		it.Deleted = rng.Intn(10) == 0
		for n := rng.Intn(3); n > 0; n-- {
			it.Meta.Destinations = append(it.Meta.Destinations, "to:"+creators[rng.Intn(4)])
		}
		if rng.Intn(10) == 0 && len(it.Meta.Destinations) > 0 {
			it.Meta.Destinations = append(it.Meta.Destinations, it.Meta.Destinations[0])
		}
		return it
	}
	ordered := 0 // runs seen in ID order
	check := func(step int) {
		t.Helper()
		if s.index.size != s.Len() {
			t.Fatalf("step %d: ID index holds %d, store holds %d", step, s.index.size, s.Len())
		}
		checkIndexInvariants(t, &s.index)
		checkRuns(t, s)
		for _, rs := range append([]*runSet{&s.main}, s.destSets...) {
			for _, r := range rs.runs {
				if r.disorder == 0 {
					ordered++
				}
			}
		}
		for _, floor := range []map[vclock.ReplicaID]uint64{{}, nil} {
			assertRangeAbove(t, s, floor)
		}
		floor := map[vclock.ReplicaID]uint64{}
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
	refiled := 0
	for step := 0; step < 6000; step++ {
		if also && step == 3000 {
			s.FileUnderDestinations(false)
			check(step)
		}
		switch op := rng.Intn(20); {
		case op < 14:
			var tr *item.Transient
			if rng.Intn(3) == 0 {
				tr = &item.Transient{}
				tr.Set(item.FieldCopies, 1+rng.Intn(2))
			}
			s.Put(randomItem(), tr, rng.Intn(3) > 0, false)
		case op < 16:
			s.Remove(item.ID{Creator: vclock.ReplicaID(creators[rng.Intn(len(creators))]), Num: uint64(rng.Intn(400) + 1)})
		case op < 19:
			// Spend a stored copy's last halving, as a serve does, and refile
			// it — or refile one the predicate still rejects, which stays put.
			e := s.Get(item.ID{Creator: vclock.ReplicaID(creators[rng.Intn(len(creators))]), Num: uint64(rng.Intn(400) + 1)})
			if e == nil {
				continue
			}
			if rng.Intn(2) == 0 {
				e.Transient.Set(item.FieldCopies, 1)
			}
			was := e.inMain
			s.Refile(e)
			if e.inMain != (was && !s.filesByDest(e)) {
				t.Fatalf("step %d: %s@%s refiled: filed in the main runs %v, was %v", step, e.Item.ID, e.Item.Version, e.inMain, was)
			}
			if was && !e.inMain {
				refiled++
			}
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
	if refiled < 40 || len(s.destSets) == 0 {
		t.Fatalf("%d refiles, %d destination sets: the sequence did not exercise the destination runs", refiled, len(s.destSets))
	}
	t.Logf("%d refiles; runs in ID order seen %d times", refiled, ordered)
	if ordered < 20 {
		t.Fatalf("runs in ID order seen %d times: the sequence did not exercise ordered runs", ordered)
	}
}

// TestRangeAboveEarlyStop verifies fn returning false ends its run, and
// only its run, and that a floor of math.MaxUint64 passes over an ordered
// run whole.
func TestRangeAboveEarlyStop(t *testing.T) {
	s := New(0)
	for _, c := range []string{"a", "b", "c"} {
		for i := uint64(1); i <= 2000; i++ {
			s.Put(mkItem(c, i), nil, false, false)
		}
	}
	n := make(map[vclock.ReplicaID]int)
	s.RangeAbove(func(c vclock.ReplicaID, ordered bool) uint64 {
		if ordered {
			t.Fatalf("run %q reported ordered with no entry filed by destination", c)
		}
		if c == "c" {
			return math.MaxUint64 // covers every seq but 0, which c's run lacks
		}
		return 1000
	}, func(e *Entry) bool {
		if e.Item.Version.Seq <= 1000 {
			t.Fatalf("yielded covered version %s", e.Item.Version)
		}
		n[e.Item.Version.Replica]++
		return n[e.Item.Version.Replica] < 7
	})
	if n["a"] != 7 || n["b"] != 7 || n["c"] != 0 {
		t.Fatalf("early stops visited %v entries, want 7 of a and b, none of c", n)
	}
}

// TestRangeAboveExaminesSublinear pins the walk's cost with a count, not a
// clock, on both store shapes that matter: a few long creator runs (5 × 10k,
// a hub's) and many short ones (26 × 15, the paper trace's: 26 buses, ≈ 15
// stored versions each). A run the target knows entirely costs no visit; any
// other one a descent — a binary search per level, which visits nothing —
// plus what it yields. So the walk examines exactly the entries it hands fn,
// none with everything known, and never anything proportional to the store.
func TestRangeAboveExaminesSublinear(t *testing.T) {
	for _, shape := range []struct{ creators, perCreator int }{{5, 10000}, {26, 15}} {
		s := New(0)
		for c := 0; c < shape.creators; c++ {
			for i := 1; i <= shape.perCreator; i++ {
				s.Put(mkItem(fmt.Sprintf("c%02d", c), uint64(i)), nil, false, false)
			}
		}
		checkRuns(t, s)
		for _, k := range []int{0, 1, 10, 1000} {
			if k > shape.perCreator {
				continue
			}
			floor := func(vclock.ReplicaID, bool) uint64 { return uint64(shape.perCreator - k) }
			yielded := 0
			examined := s.RangeAbove(floor, func(*Entry) bool {
				yielded++
				return true
			})
			unknown := k * shape.creators
			if yielded != unknown {
				t.Fatalf("%d×%d, k=%d: yielded %d entries, want %d", shape.creators, shape.perCreator, k, yielded, unknown)
			}
			if examined != yielded {
				t.Errorf("%d×%d, k=%d: examined %d entries, fn was called %d times", shape.creators, shape.perCreator, k, examined, yielded)
			}
			t.Logf("%d×%d, k=%d: yielded %d, examined %d of %d", shape.creators, shape.perCreator, k, yielded, examined, s.Len())
		}
		// With nothing known the walk is a full ascend: every entry once.
		if examined := s.RangeAbove(func(vclock.ReplicaID, bool) uint64 { return 0 }, func(*Entry) bool { return true }); examined != s.Len() {
			t.Errorf("%d×%d, empty floor: examined %d entries, store holds %d", shape.creators, shape.perCreator, examined, s.Len())
		}
	}
}

// TestDestinationWalksExamineSublinear pins the destination walks' cost
// with a count, as TestRangeAboveExaminesSublinear does the main walk's, on
// a basic replica's store shape: every entry filed under its destination,
// 26 creators × 60 versions spread over 17 destinations (the widest filter
// of Fig. 5), so each destination holds a run of every creator. The
// per-address lookup and the walk over every destination take the same
// floors as the main walk and count as it does: with k versions per
// creator unknown they examine what they yield, nothing with everything
// known.
func TestDestinationWalksExamineSublinear(t *testing.T) {
	const creators, perCreator, dests = 26, 60, 17
	s := New(0)
	s.DestinationOnly(func(*Entry) bool { return true })
	for c := 0; c < creators; c++ {
		for i := 1; i <= perCreator; i++ {
			it := mkItem(fmt.Sprintf("c%02d", c), uint64(i))
			it.Meta.Destinations = []string{fmt.Sprintf("to:%02d", (c+i)%dests)}
			s.Put(it, nil, false, false)
		}
	}
	checkRuns(t, s)
	if len(s.main.runs) != 0 || len(s.destSets) != dests {
		t.Fatalf("%d main runs and %d destination sets, want 0 and %d", len(s.main.runs), len(s.destSets), dests)
	}
	for _, k := range []int{0, 1, 10, perCreator} {
		floor := func(vclock.ReplicaID, bool) uint64 { return uint64(perCreator - k) }
		yielded := 0
		count := func(*Entry) bool {
			yielded++
			return true
		}
		lookup := 0
		for _, rs := range s.destSets {
			lookup += s.RangeAboveTo(rs.to, floor, count)
		}
		byLookup := yielded
		yielded = 0
		fallback := s.RangeAboveDestinations(floor, count)
		unknown := k * creators
		if byLookup != unknown || yielded != unknown {
			t.Fatalf("k=%d: the lookup yielded %d entries and the walk over every destination %d, want %d", k, byLookup, yielded, unknown)
		}
		if lookup != unknown || fallback != unknown {
			t.Errorf("k=%d: the lookup examined %d and the walk over every destination %d of %d entries, want %d",
				k, lookup, fallback, s.Len(), unknown)
		}
		t.Logf("k=%d: yielded %d, examined %d by lookup and %d by the walk over every destination, of %d", k, unknown, lookup, fallback, s.Len())
	}
}
