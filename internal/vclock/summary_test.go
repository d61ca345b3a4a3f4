package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomKnowledge builds knowledge with a random base/exception shape:
// a few creators, random base prefixes, random sparse exceptions.
func randomKnowledge(rng *rand.Rand) *Knowledge {
	k := NewKnowledge()
	creators := []ReplicaID{"a", "bus-7", "c", "dd"}
	for _, r := range creators {
		base := rng.Intn(20)
		for s := 1; s <= base; s++ {
			k.Add(Version{Replica: r, Seq: uint64(s)})
		}
		for i := 0; i < rng.Intn(10); i++ {
			k.Add(Version{Replica: r, Seq: uint64(base + 2 + rng.Intn(60))})
		}
	}
	return k
}

func TestDiffSinceReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Property: for any monotone growth old ⊆ new, merging DiffSince(old)
	// into old reconstructs new exactly, and the diff stays canonical.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		old := randomKnowledge(r)
		cur := old.Clone()
		for i := 0; i < r.Intn(40); i++ {
			cur.Add(Version{
				Replica: []ReplicaID{"a", "bus-7", "c", "dd", "new"}[r.Intn(5)],
				Seq:     uint64(1 + r.Intn(120)),
			})
		}
		diff := cur.DiffSince(old)
		checkCanonical(t, diff, "diff")
		rebuilt := old.Clone()
		rebuilt.Merge(diff)
		if !rebuilt.Equal(cur) {
			t.Logf("old=%v cur=%v diff=%v rebuilt=%v", old, cur, diff, rebuilt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}

	// Nothing changed → empty diff.
	k := randomKnowledge(rng)
	if d := k.DiffSince(k); d.Size() != 0 {
		t.Fatalf("self-diff not empty: %v", d)
	}
	// Everything changed since empty knowledge → the diff is the knowledge.
	if d := k.DiffSince(NewKnowledge()); !d.Equal(k) {
		t.Fatalf("diff since empty is %v, want %v", d, k)
	}
}

func TestDiffSinceIsSmall(t *testing.T) {
	old := NewKnowledge()
	for r := 0; r < 50; r++ {
		id := ReplicaID(string(rune('A'+r)) + "-node")
		for s := uint64(1); s <= 200; s++ {
			old.Add(Version{Replica: id, Seq: s})
		}
	}
	cur := old.Clone()
	cur.Add(Version{Replica: "A-node", Seq: 201})
	cur.Add(Version{Replica: "B-node", Seq: 203})
	diff := cur.DiffSince(old)
	if diff.Size() != 2 {
		t.Fatalf("diff tracks %d entries, want 2: %v", diff.Size(), diff)
	}
	if full, d := cur.WireSize(), diff.WireSize(); d*10 > full {
		t.Fatalf("delta (%dB) not ≪ full knowledge (%dB)", d, full)
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		d := NewDelta(uint64(rng.Intn(5)+1), uint64(rng.Intn(100)), randomKnowledge(rng))
		enc, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != d.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", d.WireSize(), len(enc))
		}
		var back Delta
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if back.Epoch() != d.Epoch() || back.Gen() != d.Gen() || !back.Changes().Equal(d.Changes()) {
			t.Fatalf("round-trip changed delta: %v/%v/%v -> %v/%v/%v",
				d.epoch, d.gen, d.changes, back.epoch, back.gen, back.changes)
		}
	}

	// nil changes means an empty frame, and it still round-trips.
	d := NewDelta(3, 9, nil)
	enc, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Delta
	if err := back.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if back.Changes().Size() != 0 || back.Epoch() != 3 || back.Gen() != 9 {
		t.Fatalf("empty delta round-trip: %+v", &back)
	}

	var bad Delta
	if err := bad.UnmarshalBinary([]byte{0x01}); err == nil {
		t.Fatal("decode accepted a truncated delta")
	}
}

func TestKnowledgeWireSize(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		k := randomKnowledge(rng)
		enc, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if k.WireSize() != len(enc) {
			t.Fatalf("WireSize %d != encoded length %d for %v", k.WireSize(), len(enc), k)
		}
	}
	if got := NewKnowledge().WireSize(); got != 2 {
		t.Fatalf("empty knowledge wire size %d, want 2", got)
	}
}
