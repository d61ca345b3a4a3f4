package vclock

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// versionList generates random version sets over a few replicas with small
// sequence numbers — dense enough that compaction, exceptions, and gap-fills
// all occur constantly.
type versionList []Version

func (versionList) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(24)
	vs := make(versionList, n)
	replicas := []ReplicaID{"r1", "r2", "r3", "r4"}
	for i := range vs {
		vs[i] = Version{
			Replica: replicas[rng.Intn(len(replicas))],
			Seq:     uint64(1 + rng.Intn(12)),
		}
	}
	return reflect.ValueOf(vs)
}

func buildKnowledge(vs versionList) *Knowledge {
	k := NewKnowledge()
	for _, v := range vs {
		k.Add(v)
	}
	return k
}

// checkCompact asserts the representation invariant: every exception lies
// strictly beyond the base, and the base is maximal (the version right after
// it is never sitting in the exception set — compaction would have folded
// it in).
func checkCompact(t *testing.T, k *Knowledge) bool {
	t.Helper()
	for _, w := range k.rows {
		if w.base == 0 && len(w.extra) == 0 {
			t.Logf("empty row retained for %s", w.creator)
			return false
		}
		for s := range w.extra {
			if s <= w.base {
				t.Logf("exception %s:%d at or below base %d", w.creator, s, w.base)
				return false
			}
		}
		if _, ok := w.extra[w.base+1]; ok {
			t.Logf("base %s:%d not maximal: %d is an exception", w.creator, w.base, w.base+1)
			return false
		}
	}
	return true
}

// TestQuickUnionNeverForgets: after merging, the union contains every version
// either side ever learned — knowledge exchange can only grow what a replica
// knows, which is the foundation of at-most-once delivery.
func TestQuickUnionNeverForgets(t *testing.T) {
	prop := func(xs, ys versionList) bool {
		k := buildKnowledge(xs)
		k.Merge(buildKnowledge(ys))
		for _, v := range append(append(versionList{}, xs...), ys...) {
			if !k.Contains(v) {
				t.Logf("union forgot %s", v)
				return false
			}
		}
		return checkCompact(t, k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionCommutative: merge order cannot matter — encounters happen in
// arbitrary order in a DTN, and both peers must converge on the same
// knowledge.
func TestQuickUnionCommutative(t *testing.T) {
	prop := func(xs, ys versionList) bool {
		ab := buildKnowledge(xs)
		ab.Merge(buildKnowledge(ys))
		ba := buildKnowledge(ys)
		ba.Merge(buildKnowledge(xs))
		if !ab.Equal(ba) {
			t.Logf("merge not commutative: %s vs %s", ab, ba)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionIdempotent: replaying the same knowledge — which disrupted
// encounters do all the time — changes nothing.
func TestQuickUnionIdempotent(t *testing.T) {
	prop := func(xs, ys versionList) bool {
		other := buildKnowledge(ys)
		k := buildKnowledge(xs)
		k.Merge(other)
		once := k.Clone()
		k.Merge(other)
		k.Merge(k.Clone())
		if !k.Equal(once) {
			t.Logf("re-merge changed knowledge: %s vs %s", once, k)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnionAssociative: chains of encounters may fold knowledge in any
// grouping and still converge.
func TestQuickUnionAssociative(t *testing.T) {
	prop := func(xs, ys, zs versionList) bool {
		left := buildKnowledge(xs)
		left.Merge(buildKnowledge(ys))
		left.Merge(buildKnowledge(zs))
		yz := buildKnowledge(ys)
		yz.Merge(buildKnowledge(zs))
		right := buildKnowledge(xs)
		right.Merge(yz)
		if !left.Equal(right) {
			t.Logf("merge not associative: %s vs %s", left, right)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickAddMatchesSet: knowledge built by Add behaves exactly like the
// naive version set — same membership, same count — and compaction never
// loses or invents versions.
func TestQuickAddMatchesSet(t *testing.T) {
	prop := func(xs versionList) bool {
		k := buildKnowledge(xs)
		set := make(map[Version]struct{})
		for _, v := range xs {
			set[v] = struct{}{}
		}
		if k.Count() != uint64(len(set)) {
			t.Logf("Count = %d, want %d", k.Count(), len(set))
			return false
		}
		for v := range set {
			if !k.Contains(v) {
				t.Logf("compacted away %s", v)
				return false
			}
		}
		// Spot-check absence: versions never added are never contained.
		for _, r := range []ReplicaID{"r1", "r2", "r3", "r4"} {
			for s := uint64(1); s <= 13; s++ {
				v := Version{Replica: r, Seq: s}
				_, want := set[v]
				if k.Contains(v) != want {
					t.Logf("Contains(%s) = %v, want %v", v, !want, want)
					return false
				}
			}
		}
		return checkCompact(t, k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickCloneIsolation: a copy-on-write clone taken at any point is a
// faithful frozen copy — mutating the source never leaks into it.
func TestQuickCloneIsolation(t *testing.T) {
	prop := func(xs, ys versionList) bool {
		k := buildKnowledge(xs)
		snap := k.Clone()
		frozen := buildKnowledge(xs)
		for _, v := range ys {
			k.Add(v)
		}
		k.Merge(buildKnowledge(ys))
		if !snap.Equal(frozen) {
			t.Logf("clone drifted with its source: %s vs %s", snap, frozen)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
