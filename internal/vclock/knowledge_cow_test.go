package vclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCloneCopyOnWriteIndependence verifies that a clone and its source stay
// logically independent through mutations on both sides.
func TestCloneCopyOnWriteIndependence(t *testing.T) {
	k := NewKnowledge()
	for s := uint64(1); s <= 5; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	k.Add(Version{Replica: "b", Seq: 7}) // exception

	c := k.Clone()
	if !c.Equal(k) {
		t.Fatal("clone must equal source")
	}

	// Mutating the source must not leak into the clone.
	k.Add(Version{Replica: "a", Seq: 6})
	k.Add(Version{Replica: "b", Seq: 9})
	if c.Contains(Version{Replica: "a", Seq: 6}) || c.Contains(Version{Replica: "b", Seq: 9}) {
		t.Fatal("source mutation leaked into clone")
	}

	// Mutating the clone must not leak into the source.
	c.Add(Version{Replica: "c", Seq: 1})
	if k.Contains(Version{Replica: "c", Seq: 1}) {
		t.Fatal("clone mutation leaked into source")
	}

	// Merge is a mutation too: merging into a clone must not touch the
	// source's storage.
	c2 := k.Clone()
	other := NewKnowledge()
	other.Add(Version{Replica: "d", Seq: 3})
	c2.Merge(other)
	if k.Contains(Version{Replica: "d", Seq: 3}) {
		t.Fatal("merge into clone leaked into source")
	}

	// A row Merge adopts from its argument must not alias the argument's
	// exceptions: growing them in place afterwards must not reach k.
	donor := NewKnowledge()
	for _, s := range []uint64{3, 5, 9} {
		donor.Add(Version{Replica: "e", Seq: s})
	}
	k.Merge(donor)
	donor.Add(Version{Replica: "e", Seq: 7})
	if k.Contains(Version{Replica: "e", Seq: 7}) || !k.Contains(Version{Replica: "e", Seq: 9}) {
		t.Fatalf("the merged-from knowledge's later insert leaked into the merge: %s", k)
	}
}

// TestCloneChainsShareUntilWrite exercises multiple live clones of the same
// source, each diverging independently.
func TestCloneChainsShareUntilWrite(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	c1 := k.Clone()
	c2 := k.Clone()
	c3 := c1.Clone()

	k.Add(Version{Replica: "a", Seq: 2})
	c1.Add(Version{Replica: "b", Seq: 1})
	c2.Add(Version{Replica: "c", Seq: 5})

	if c3.Count() != 1 || !c3.Contains(Version{Replica: "a", Seq: 1}) {
		t.Fatalf("grandclone diverged: %s", c3)
	}
	if c1.Contains(Version{Replica: "c", Seq: 5}) || c2.Contains(Version{Replica: "b", Seq: 1}) {
		t.Fatal("sibling clones leaked into each other")
	}
}

// TestCloneConcurrentReadDuringMutation reads a clone from other goroutines
// while the source keeps mutating — the pattern of a sync request's knowledge
// view being consulted by the source replica while the target continues to
// learn versions. Run under -race this proves the copy-on-write handoff is
// race-free.
func TestCloneConcurrentReadDuringMutation(t *testing.T) {
	k := NewKnowledge()
	for s := uint64(1); s <= 100; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	k.Add(Version{Replica: "b", Seq: 50})

	snap := k.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if !snap.Contains(Version{Replica: "a", Seq: 1}) {
					t.Error("clone lost a version")
					return
				}
				snap.Contains(Version{Replica: "b", Seq: uint64(i%60 + 1)})
				_ = snap.ExceptionCount()
			}
		}()
	}
	for s := uint64(101); s <= 2000; s++ {
		k.Add(Version{Replica: "a", Seq: s})
		if s%10 == 0 {
			k.Add(Version{Replica: "b", Seq: s})
		}
	}
	wg.Wait()
	if snap.Contains(Version{Replica: "a", Seq: 101}) {
		t.Fatal("clone observed post-clone mutation")
	}
}

// TestCloneFirstWriteCopiesOneRow pins copy-on-write's granularity with an
// allocation count: the first Add after a Clone copies the row array and the
// written row's exception set, not every creator's, so what it costs does not
// grow with the exceptions the other creators hold. The shape is the paper
// trace's fleet: 26 creators; the written one holds 5 exceptions, the other
// 25 hold 5, 50 or 500 each.
func TestCloneFirstWriteCopiesOneRow(t *testing.T) {
	var counts []float64
	for _, perCreator := range []int{5, 50, 500} {
		k := NewKnowledge()
		for c := 0; c < 26; c++ {
			n := perCreator
			if c == 7 {
				n = 5
			}
			for i := 0; i < n; i++ {
				// Odd seqs from 3: every one an exception, none contiguous.
				k.Add(Version{Replica: ReplicaID(fmt.Sprintf("bus-%02d", c)), Seq: uint64(3 + 2*i)})
			}
		}
		next := Version{Replica: "bus-07", Seq: 3 + 2*5}
		allocs := testing.AllocsPerRun(100, func() {
			c := k.Clone()
			c.Add(next)
		})
		if allocs > 6 {
			t.Errorf("%d exceptions per other creator: Clone + Add allocates %v times, want at most 6", perCreator, allocs)
		}
		counts = append(counts, allocs)
	}
	t.Logf("Clone + Add allocations at 5/50/500 exceptions per other creator: %v", counts)
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("Clone + Add allocations grow with other creators' exceptions: %v", counts)
	}
}

// TestUnmarshalClearsSharing verifies a clone that is overwritten by decoding
// stops sharing with its source.
func TestUnmarshalClearsSharing(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	c := k.Clone()

	fresh := NewKnowledge()
	fresh.Add(Version{Replica: "z", Seq: 9})
	data, err := fresh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	c.Add(Version{Replica: "z", Seq: 10})
	if k.Contains(Version{Replica: "z", Seq: 9}) || k.Contains(Version{Replica: "z", Seq: 10}) {
		t.Fatal("decoded clone leaked into source")
	}
}

// TestWireSizeMemoStaysExact drives a family of knowledge values through a
// random Add / Merge / Clone / decode / DiffSince sequence and demands after
// every step that every live value's WireSize equals the length of its
// encoding — so every mutation lands on a warm memo, its own or inherited.
// First, two fixed cases move a base by one under a warm memo while no
// exception folds into it, which shrinks the exceptions' encoding: a
// bitmap over 3..10 loses a byte, and a gap of 128 becomes 127.
func TestWireSizeMemoStaysExact(t *testing.T) {
	for _, seqs := range [][]uint64{{3, 4, 5, 6, 7, 8, 9, 10}, {130}} {
		k := NewKnowledge()
		for _, s := range seqs {
			k.Add(Version{Replica: "a", Seq: s})
		}
		before := k.WireSize()
		k.Add(Version{Replica: "a", Seq: 1})
		if data, _ := k.MarshalBinary(); k.WireSize() != len(data) || len(data) != before-1 {
			t.Fatalf("%v, then a:1: WireSize() = %d, encoding is %d bytes, %d before", seqs, k.WireSize(), len(data), before)
		}
	}
	rng := rand.New(rand.NewSource(11))
	randomVersion := func() Version {
		return Version{
			Replica: ReplicaID(fmt.Sprintf("r%d", rng.Intn(5))),
			Seq:     uint64(rng.Intn(300)), // 0 included: Add ignores it
		}
	}
	live := []*Knowledge{NewKnowledge()}
	pick := func() *Knowledge { return live[rng.Intn(len(live))] }
	for step := 0; step < 4000; step++ {
		k := pick()
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			k.Add(randomVersion())
		case 5:
			k.Merge(pick())
		case 6, 7:
			live = append(live, k.Clone())
		case 8:
			data, err := k.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := pick().UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
		default:
			if old := pick(); old != k {
				older := old.Clone()
				old.Merge(k) // old ⊆ old∪k, as DiffSince requires
				live = append(live, old.DiffSince(older))
			}
		}
		if len(live) > 12 {
			live = live[len(live)-8:]
		}
		for i, k := range live {
			data, err := k.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := k.WireSize(); got != len(data) {
				t.Fatalf("step %d: live[%d] WireSize() = %d, encoding is %d bytes (%s)", step, i, got, len(data), k)
			}
		}
	}
}

// TestReleaseCountsClones: the source copies on write while any clone is
// out, so giving back one of two still copies; the creator index keeps its
// own count, so a clone given back after the source copied its rows still
// returns the index; and a clone that was itself cloned is never given back.
func TestReleaseCountsClones(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 1})
	one, two := k.Clone(), k.Clone()
	k.Release(one)
	k.Add(Version{Replica: "a", Seq: 2}) // copies the rows, not the index
	if two.Contains(Version{Replica: "a", Seq: 2}) {
		t.Fatal("with two clones out, giving one back let the source write the other in place")
	}
	k.Release(two)
	index := reflect.ValueOf(k.index).UnsafePointer()
	k.Add(Version{Replica: "b", Seq: 1})
	if k.shares != 0 || k.indexShares != 0 || reflect.ValueOf(k.index).UnsafePointer() != index {
		t.Errorf("the index given back was copied for a new creator (shares %d, index shares %d)", k.shares, k.indexShares)
	}

	c := k.Clone()
	held := c.Clone()
	k.Release(c)
	k.Add(Version{Replica: "a", Seq: 3})
	k.Add(Version{Replica: "c", Seq: 1})
	if held.Contains(Version{Replica: "a", Seq: 3}) || held.Contains(Version{Replica: "c", Seq: 1}) {
		t.Fatal("a clone of a clone saw the source's writes after the first clone was given back")
	}
}
