package vclock

import (
	"bytes"
	"math"
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

func TestDigestNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := randomKnowledge(rng)
		d := k.Digest(0.01)
		for _, w := range k.rows {
			for s := range w.extra {
				v := Version{Replica: w.creator, Seq: s}
				if !d.MayHaveException(v) {
					t.Fatalf("trial %d: digest of %v lost exception %v", trial, k, v)
				}
			}
		}
		if !d.Base().Equal(k.Base()) {
			t.Fatalf("trial %d: digest base %v != knowledge base %v", trial, d.Base(), k.Base())
		}
	}
}

func TestDigestSizing(t *testing.T) {
	k := NewKnowledge()
	for i := 0; i < 1000; i++ {
		// All exceptions: odd sequences only, never contiguous.
		k.Add(Version{Replica: "src", Seq: uint64(3 + 2*i)})
	}
	d := k.Digest(0.01)
	if d.ExceptionCount() != 1000 {
		t.Fatalf("digest counts %d exceptions, want 1000", d.ExceptionCount())
	}
	// m = -n ln p / (ln 2)^2 ≈ 9.585 bits per element at p = 0.01.
	wantBits := int(math.Ceil(1000 * -math.Log(0.01) / (math.Ln2 * math.Ln2)))
	gotBits := 64 * len(d.bits)
	if gotBits < wantBits || gotBits >= wantBits+64 {
		t.Fatalf("filter is %d bits, want %d rounded up to a word", gotBits, wantBits)
	}
	// k = (m/n) ln 2 ≈ 6.6 probes at p = 0.01.
	if d.k < 5 || d.k > 8 {
		t.Fatalf("filter uses %d probes, want ≈7", d.k)
	}

	// A tighter FP target must spend more bits.
	tight := k.Digest(0.0001)
	if len(tight.bits) <= len(d.bits) {
		t.Fatalf("0.01%% digest (%d words) not larger than 1%% digest (%d words)",
			len(tight.bits), len(d.bits))
	}

	// Out-of-range rates fall back to the default.
	if def, bad := k.Digest(0), k.Digest(1.5); len(def.bits) != len(k.Digest(DefaultDigestFPRate).bits) ||
		len(bad.bits) != len(def.bits) {
		t.Fatal("out-of-range fp rate did not select the default")
	}
}

func TestDigestObservedFPRate(t *testing.T) {
	k := NewKnowledge()
	for i := 0; i < 2000; i++ {
		k.Add(Version{Replica: "src", Seq: uint64(3 + 2*i)})
	}
	d := k.Digest(0.01)
	fps := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		// Even sequences are never members.
		if d.MayHaveException(Version{Replica: "src", Seq: uint64(10000 + 2*i)}) {
			fps++
		}
	}
	rate := float64(fps) / probes
	if rate > 0.03 {
		t.Fatalf("observed false-positive rate %.4f far above the 0.01 target", rate)
	}
}

func TestDigestEmptyAndBaseOnly(t *testing.T) {
	empty := NewKnowledge().Digest(0.01)
	if empty.ExceptionCount() != 0 || empty.bits != nil {
		t.Fatalf("empty digest carries a filter: %+v", empty)
	}
	if empty.MayHaveException(Version{Replica: "a", Seq: 1}) {
		t.Fatal("empty digest claims a member")
	}

	k := NewKnowledge()
	for s := uint64(1); s <= 9; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	d := k.Digest(0.01)
	if d.ExceptionCount() != 0 {
		t.Fatalf("base-only digest claims %d exceptions", d.ExceptionCount())
	}
	if d.BaseSeq("a") != 9 || d.BaseSeq("b") != 0 {
		t.Fatal("digest base does not mirror the knowledge base")
	}
}

func TestDigestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		k := randomKnowledge(rng)
		d := k.Digest(0.02)
		enc, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != d.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", d.WireSize(), len(enc))
		}
		var back Digest
		if err := back.UnmarshalBinary(enc); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !back.base.Equal(d.base) || back.count != d.count || back.k != d.k {
			t.Fatalf("round-trip changed digest header: %+v -> %+v", d, &back)
		}
		if len(back.bits) != len(d.bits) {
			t.Fatalf("round-trip changed filter width")
		}
		for i := range d.bits {
			if back.bits[i] != d.bits[i] {
				t.Fatalf("round-trip changed filter bits at word %d", i)
			}
		}
	}
}

func TestDigestDecodeRejects(t *testing.T) {
	k := NewKnowledge()
	k.Add(Version{Replica: "a", Seq: 3})
	d := k.Digest(0.01)
	valid, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated header":  valid[:1],
		"truncated filter":  valid[:len(valid)-1],
		"trailing bytes":    append(append([]byte{}, valid...), 0xff),
		"forged word count": {0x00, 0x01, 0x01, 0x7f}, // count=1, k=1, nWords=127, no bytes
		// nWords = 2^61: nWords*8 wraps to 0, matching the zero remaining
		// bytes — the length check must not multiply.
		"overflowing word count": {0x00, 0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
		"degenerate probes":      {0x00, 0x01, 0x7f, 0x00}, // k=127 > maxDigestProbes
		"filter for nothing":     {0x00, 0x00, 0x01, 0x00}, // count=0 but k=1
		"empty filter":           {0x00, 0x01, 0x00, 0x00}, // count=1 but k=0, nWords=0
	}
	for name, data := range cases {
		var bad Digest
		if err := bad.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decode accepted %x", name, data)
		}
	}
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

func TestDigestMarshalDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k := randomKnowledge(rng)
	d := k.Digest(0.01)
	a, _ := d.MarshalBinary()
	b, _ := d.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("digest marshal not deterministic")
	}
}
