package vclock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVersionIsZero(t *testing.T) {
	if !(Version{}).IsZero() {
		t.Error("zero Version should report IsZero")
	}
	if (Version{Replica: "a", Seq: 1}).IsZero() {
		t.Error("non-zero Version should not report IsZero")
	}
}

func TestVersionString(t *testing.T) {
	got := Version{Replica: "nodeA", Seq: 42}.String()
	if got != "nodeA:42" {
		t.Errorf("String() = %q, want %q", got, "nodeA:42")
	}
}

func TestVersionCompareSameReplica(t *testing.T) {
	a1 := Version{Replica: "a", Seq: 1}
	a2 := Version{Replica: "a", Seq: 2}
	if a1.Compare(a2) != -1 {
		t.Error("a:1 should be older than a:2")
	}
	if a2.Compare(a1) != 1 {
		t.Error("a:2 should be newer than a:1")
	}
	if a1.Compare(a1) != 0 {
		t.Error("a:1 should equal itself")
	}
}

func TestVersionCompareConcurrentDeterministic(t *testing.T) {
	a := Version{Replica: "a", Seq: 5}
	b := Version{Replica: "b", Seq: 5}
	if a.Compare(b) == b.Compare(a) {
		t.Error("concurrent versions must order antisymmetrically")
	}
	if a.Compare(b) != -1 {
		t.Error("equal-seq tie must break by replica ID")
	}
	c := Version{Replica: "a", Seq: 9}
	if c.Compare(b) != 1 {
		t.Error("higher seq must win the concurrent tiebreak")
	}
}

func TestKnowledgeAddContains(t *testing.T) {
	k := NewKnowledge()
	v := Version{Replica: "a", Seq: 1}
	if k.Contains(v) {
		t.Error("empty knowledge should contain nothing")
	}
	if !k.Add(v) {
		t.Error("Add of a new version should return true")
	}
	if k.Add(v) {
		t.Error("Add of a known version should return false")
	}
	if !k.Contains(v) {
		t.Error("knowledge should contain an added version")
	}
}

func TestKnowledgeCompaction(t *testing.T) {
	k := NewKnowledge()
	// Add out of order: 3, 1, 2 — after all three the base should be 3 with
	// no exceptions left.
	k.Add(Version{Replica: "a", Seq: 3})
	if k.ExceptionCount() != 1 {
		t.Fatalf("expected 1 exception after gap, got %d", k.ExceptionCount())
	}
	k.Add(Version{Replica: "a", Seq: 1})
	k.Add(Version{Replica: "a", Seq: 2})
	if k.ExceptionCount() != 0 {
		t.Errorf("exceptions should compact into base, %d left", k.ExceptionCount())
	}
	if got := k.View("a").Base; got != 3 {
		t.Errorf("base = %d, want 3", got)
	}
}

func TestKnowledgeCount(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	k.Add(Version{Replica: "a", Seq: 2})
	k.Add(Version{Replica: "b", Seq: 5})
	if got := k.Count(); got != 3 {
		t.Errorf("Count() = %d, want 3", got)
	}
}

func TestKnowledgeMerge(t *testing.T) {
	a := NewKnowledge()
	a.Add(Version{Replica: "x", Seq: 1})
	a.Add(Version{Replica: "x", Seq: 5})
	b := NewKnowledge()
	for s := uint64(1); s <= 4; s++ {
		b.Add(Version{Replica: "x", Seq: s})
	}
	a.Merge(b)
	for s := uint64(1); s <= 5; s++ {
		if !a.Contains(Version{Replica: "x", Seq: s}) {
			t.Errorf("merged knowledge missing x:%d", s)
		}
	}
	if a.ExceptionCount() != 0 {
		t.Errorf("merge should have compacted, %d exceptions left", a.ExceptionCount())
	}
}

// TestViewMatchesContains checks a creator's view — the base and exception
// set the serve walk loads once per version run — against Contains, for
// known and unknown creators alike.
func TestViewMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := NewKnowledge()
		for i := 0; i < 40; i++ {
			k.Add(Version{Replica: ReplicaID(fmt.Sprintf("c%02d", rng.Intn(12))), Seq: uint64(1 + rng.Intn(30))})
		}
		for c := 0; c < 14; c++ {
			r := ReplicaID(fmt.Sprintf("c%02d", c))
			view := k.View(r)
			for s := uint64(1); s <= 31; s++ {
				if got, want := s <= view.Base || view.HasException(s), k.Contains(Version{Replica: r, Seq: s}); got != want {
					t.Fatalf("trial %d: view of %s answers %v for seq %d, Contains %v (%s)", trial, r, got, s, want, k)
				}
			}
		}
	}
}

func TestKnowledgeString(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	k.Add(Version{Replica: "a", Seq: 3})
	if got := k.String(); got != "{a:1}+[a:3]" {
		t.Errorf("String() = %q", got)
	}
}

func TestKnowledgeMarshalRoundTrip(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	k.Add(Version{Replica: "a", Seq: 2})
	k.Add(Version{Replica: "b", Seq: 9})
	k.Add(Version{Replica: "c", Seq: 4})
	data, err := k.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var out Knowledge
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !k.Equal(&out) {
		t.Errorf("round trip mismatch: %v vs %v", k, &out)
	}
}

func TestKnowledgeMarshalDeterministic(t *testing.T) {
	build := func(order []Version) *Knowledge {
		k := NewKnowledge()
		for _, v := range order {
			k.Add(v)
		}
		return k
	}
	vs := []Version{{"a", 1}, {"b", 3}, {"a", 4}, {"c", 2}}
	k1 := build(vs)
	k2 := build([]Version{vs[3], vs[1], vs[0], vs[2]})
	d1, _ := k1.MarshalBinary()
	d2, _ := k2.MarshalBinary()
	if string(d1) != string(d2) {
		t.Error("equal knowledge must encode to equal bytes")
	}
}

func TestKnowledgeUnmarshalErrors(t *testing.T) {
	var k Knowledge
	if err := k.UnmarshalBinary([]byte{0xff}); err == nil {
		t.Error("truncated encoding should fail to decode")
	}
	good := NewKnowledge()
	good.Add(Version{Replica: "a", Seq: 1})
	data, _ := good.MarshalBinary()
	if err := k.UnmarshalBinary(append(data, 0x00)); err == nil {
		t.Error("trailing bytes should fail to decode")
	}
}

// randomVersions generates a reproducible random version stream over a small
// replica universe.
func randomVersions(seed int64, n int) []Version {
	rng := rand.New(rand.NewSource(seed))
	replicas := []ReplicaID{"a", "b", "c", "d"}
	out := make([]Version, n)
	for i := range out {
		out[i] = Version{
			Replica: replicas[rng.Intn(len(replicas))],
			Seq:     uint64(rng.Intn(20) + 1),
		}
	}
	return out
}

func TestPropKnowledgeMembershipMatchesSet(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKnowledge()
		ref := make(map[Version]bool)
		for _, v := range randomVersions(seed, 200) {
			k.Add(v)
			ref[v] = true
		}
		// Every version in the reference set must be contained, and a sample
		// of absent versions must not be.
		for v := range ref {
			if !k.Contains(v) {
				return false
			}
		}
		for _, r := range []ReplicaID{"a", "b", "c", "d", "e"} {
			for s := uint64(1); s <= 25; s++ {
				v := Version{Replica: r, Seq: s}
				if k.Contains(v) != ref[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropKnowledgeMergeCommutative(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		mk := func(seed int64) *Knowledge {
			k := NewKnowledge()
			for _, v := range randomVersions(seed, 100) {
				k.Add(v)
			}
			return k
		}
		a1, b1 := mk(seedA), mk(seedB)
		a2, b2 := mk(seedA), mk(seedB)
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Equal(b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropKnowledgeMergeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKnowledge()
		for _, v := range randomVersions(seed, 150) {
			k.Add(v)
		}
		before := k.Clone()
		k.Merge(before)
		return k.Equal(before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropKnowledgeMergeMonotone(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		a := NewKnowledge()
		for _, v := range randomVersions(seedA, 100) {
			a.Add(v)
		}
		b := NewKnowledge()
		for _, v := range randomVersions(seedB, 100) {
			b.Add(v)
		}
		aVersions := randomVersions(seedA, 100)
		a.Merge(b)
		for _, v := range aVersions {
			if !a.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKnowledge()
		for _, v := range randomVersions(seed, 120) {
			k.Add(v)
		}
		data, err := k.MarshalBinary()
		if err != nil {
			return false
		}
		var out Knowledge
		if err := out.UnmarshalBinary(data); err != nil {
			return false
		}
		return k.Equal(&out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCompactionBoundsExceptions(t *testing.T) {
	// Adding every version 1..n for a replica in any order must end with zero
	// exceptions: the encoding is proportional to replicas, not items.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(50)
		k := NewKnowledge()
		for _, p := range perm {
			k.Add(Version{Replica: "solo", Seq: uint64(p + 1)})
		}
		return k.ExceptionCount() == 0 && k.View("solo").Base == 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkKnowledgeAddSequential(b *testing.B) {
	k := NewKnowledge()
	for i := 0; i < b.N; i++ {
		k.Add(Version{Replica: "a", Seq: uint64(i + 1)})
	}
}

func BenchmarkKnowledgeContains(b *testing.B) {
	k := NewKnowledge()
	for s := uint64(1); s <= 1000; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Contains(Version{Replica: "a", Seq: uint64(i%2000) + 1})
	}
}
