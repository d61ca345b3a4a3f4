package vclock

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"replidtn/internal/wire/prim"
)

// TestKnowledgeCodecGolden pins the bytes of a fixed knowledge value —
// several creators, rows with and without a base, exceptions above gaps, a
// seq past 2^32 — and of a delta against an earlier clone.
// The expected bytes were produced by the map-based representation this one
// replaced: the in-memory form may change, the bytes in frames, snapshots and
// WAL records may not.
func TestKnowledgeCodecGolden(t *testing.T) {
	k := NewKnowledge()
	add := func(r ReplicaID, seqs ...uint64) {
		for _, s := range seqs {
			k.Add(Version{Replica: r, Seq: s})
		}
	}
	add("a", 1, 2, 3, 7, 9, 10, 200)
	add("bus-07", 6, 4, 5)
	add("c", 1, 2, 3, 4, 5)
	old := k.Clone()
	add("a", 4, 130, 12)
	add("bus-07", 1, 9)
	add("d", 300)
	add("zz", 1<<40, 3, 1)

	if got, want := k.String(), "{a:4 bus-07:1 c:5 zz:1}+[a:7 a:9 a:10 a:12 a:130 a:200 bus-07:4 bus-07:5 bus-07:6 bus-07:9 d:300 zz:3 zz:1099511627776]"; got != want {
		t.Errorf("String() = %s, want %s", got, want)
	}
	for _, tc := range []struct {
		name string
		enc  func() ([]byte, error)
		want string
	}{
		{"knowledge", k.MarshalBinary, "04016104066275732d303701016305027a7a010401610607090a0c8201c801066275732d30370404050609016401ac02027a7a0203808080808020"},
		{"delta", NewDelta(2, 5, k.DiffSince(old)).MarshalBinary, "020503016104066275732d303701027a7a01040161020c8201066275732d30370109016401ac02027a7a0203808080808020"},
	} {
		got, err := tc.enc()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s bytes changed:\n got %x\nwant %s", tc.name, got, tc.want)
		}
	}
	if enc, _ := k.MarshalBinary(); k.WireSize() != len(enc) {
		t.Errorf("WireSize() = %d, encoding is %d bytes", k.WireSize(), len(enc))
	}
}

// hostileFrames returns two valid knowledge encodings shaped to make a
// careless decoder quadratic: one creator's exceptions in descending order
// (a sorted insert per element shifts every earlier one), and distinct
// creators in descending order (an insert per creator shifts every row).
func hostileFrames(exceptions, creators int) (descending, manyCreators []byte) {
	descending = binary.AppendUvarint(nil, 0) // no base entries
	descending = binary.AppendUvarint(descending, 1)
	descending = prim.AppendString(descending, "a")
	descending = binary.AppendUvarint(descending, uint64(exceptions))
	for i := exceptions; i > 0; i-- {
		descending = binary.AppendUvarint(descending, uint64(1+2*i)) // odd: never contiguous
	}
	manyCreators = binary.AppendUvarint(nil, uint64(creators))
	for i := creators; i > 0; i-- {
		manyCreators = prim.AppendString(manyCreators, fmt.Sprintf("c%06d", i))
		manyCreators = binary.AppendUvarint(manyCreators, 1)
	}
	manyCreators = binary.AppendUvarint(manyCreators, 0) // no exception entries
	return descending, manyCreators
}

// TestKnowledgeDecodeHostileShapesStayNearLinear decodes the two hostile
// shapes at a size where a quadratic decoder takes seconds to a minute (a
// per-element sorted insert took 15 s on the first, a per-creator insert and
// reindex 53 s on the second) and a linear decoder milliseconds, even under
// -race.
func TestKnowledgeDecodeHostileShapesStayNearLinear(t *testing.T) {
	descending, manyCreators := hostileFrames(200000, 50000)
	for _, tc := range []struct {
		name  string
		data  []byte
		count uint64
	}{
		{"200k descending exceptions", descending, 200000},
		{"50k distinct creators", manyCreators, 50000},
	} {
		start := time.Now()
		k := NewKnowledge()
		if err := k.UnmarshalBinary(tc.data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: decode took %v, want < 2s", tc.name, took)
		}
		if k.Count() != tc.count {
			t.Errorf("%s: decoded %d versions, want %d", tc.name, k.Count(), tc.count)
		}
		checkCanonical(t, k, tc.name)
	}
}

// TestKnowledgeAddHostileOrdersStayNearLinear learns the same two shapes one
// version at a time, the way a peer's batch reaches knowledge (every item's
// version and each entry of its Prior list) and the way a log replays: 200k
// exceptions of one creator in descending order and 50k creators in
// descending order, then merges each result into a clone of another
// knowledge. Inserting into a sorted exception slice, or into a creator-sorted
// row array, makes either shape quadratic; each must stay under 2 s even
// under -race.
func TestKnowledgeAddHostileOrdersStayNearLinear(t *testing.T) {
	for _, tc := range []struct {
		name     string
		versions func(yield func(Version))
		count    uint64
	}{
		{"200k descending exceptions", func(yield func(Version)) {
			for i := 200000; i > 0; i-- {
				yield(Version{Replica: "a", Seq: uint64(1 + 2*i)})
			}
		}, 200000},
		{"50k descending creators", func(yield func(Version)) {
			for i := 50000; i > 0; i-- {
				yield(Version{Replica: ReplicaID(fmt.Sprintf("c%06d", i)), Seq: 1})
			}
		}, 50000},
	} {
		start := time.Now()
		k := NewKnowledge()
		tc.versions(func(v Version) { k.Add(v) })
		other := NewKnowledge()
		other.Add(Version{Replica: "a", Seq: 1})
		merged := other.Clone()
		merged.Merge(k)
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: Add and Merge took %v, want < 2s", tc.name, took)
		}
		if k.Count() != tc.count || merged.Count() != tc.count+1 {
			t.Errorf("%s: learned %d versions and merged %d, want %d and %d", tc.name, k.Count(), merged.Count(), tc.count, tc.count+1)
		}
		checkCanonical(t, k, tc.name)
		checkCanonical(t, merged, tc.name+" merged")
	}
}
