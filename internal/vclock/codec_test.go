package vclock

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"replidtn/internal/wire/prim"
)

// TestKnowledgeCodecGolden pins the bytes of a fixed knowledge value —
// several creators, rows with and without a base, exceptions above gaps, a
// seq past 2^32 — and of a delta against an earlier clone.
// The bytes change only with a wire.CodecVersion bump: the in-memory form
// may change, the bytes in frames, snapshots and WAL records may not.
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
		{"knowledge", k.MarshalBinary, "05086104306275732d303701086305086400107a7a0104000c01010001754500034e0102aa02000400fcffffffff1f"},
		{"delta", NewDelta(2, 5, k.DiffSince(old)).MarshalBinary, "020504086104306275732d303701086400107a7a0104000406750002060002aa02000400fcffffffff1f"},
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

// rejectedFrames returns knowledge encodings the decoder must refuse, one
// per rule, by name: each is a row the encoder never writes.
func rejectedFrames() []namedFrame {
	overflow := prim.AppendUvarint([]byte("\x01\x08a\x00\x01\x00\x04"), math.MaxUint64-2) // reaches 2^64-1
	top := append(prim.AppendUvarint([]byte("\x01\x08a"), math.MaxUint64), 1, 0, 2, 0)
	return []namedFrame{
		{"prefix-past-name", []byte("\x02\x08a\x01\x0ab\x01\x00")},            // "b" shares 2 bytes with "a"
		{"suffix-past-input", []byte("\x01\x28ab")},                           // a 5-byte suffix, 2 bytes left
		{"bitmap-past-input", []byte("\x01\x08a\x00\x01\x00\x09\xff")},        // a 4-byte bitmap, 1 byte left
		{"gap-overflow", append(overflow, 0)},                                 // the next seq is past 2^64-1
		{"exception-past-top", top},                                           // base 2^64-1 with an exception
		{"noncanonical", []byte("\x02\x08b\x01\x08a\x01\x00")},                // rows out of creator order: "a" after "b"
		{"repeated", []byte("\x02\x08a\x01\x01\x01\x00")},                     // "a" again: the whole name shared
		{"reference-truncated", []byte("\x01\x08a\x01\x02\x00\x02\x00")},      // two rows' exceptions promised, one given
		{"reference-past-rows", []byte("\x01\x08a\x01\x01\x01\x02\x00")},      // exceptions of row 1 of 1
		{"empty-row", []byte("\x01\x08a\x00\x00")},                            // base 0, no exceptions
		{"empty-exceptions", []byte("\x01\x08a\x01\x01\x00\x00")},             // an exception entry of no gaps
		{"bitmap-zero-tail", []byte("\x01\x08a\x00\x01\x00\x05\x01\x00")},     // a 2-byte bitmap whose last byte is 0
		{"forged-rows", []byte("\x80\x80\x80\x80\x08\x08a\x01\x00")},          // 2^31 rows in 4 bytes
		{"forged-count", []byte("\x01\x08a\x01\x01\x00\x80\x80\x80\x80\x08")}, // 2^30 gaps in no bytes
		{"truncated", []byte("\x02\x08a\x01\x08")},                            // the second row stops after its name header
		{"trailing", []byte("\x00\x00\xff")},                                  // bytes after an empty document
	}
}

type namedFrame struct {
	name string
	data []byte
}

// TestKnowledgeDecodeRejects refuses every rejected frame, bare and inside a
// delta, and decodes the frame each one breaks once the break is mended.
func TestKnowledgeDecodeRejects(t *testing.T) {
	for _, f := range rejectedFrames() {
		if err := NewKnowledge().UnmarshalBinary(f.data); err == nil {
			t.Errorf("%s: %x decoded, want an error", f.name, f.data)
		}
		var d Delta
		if err := d.UnmarshalBinary(append([]byte{1, 2}, f.data...)); err == nil {
			t.Errorf("%s: delta around %x decoded, want an error", f.name, f.data)
		}
	}
	for _, ok := range [][]byte{
		[]byte("\x02\x08a\x01\x09b\x01\x00"),                                      // "ab" after "a"
		prim.AppendUvarint([]byte("\x01\x08a\x00\x01\x00\x02"), math.MaxUint64-2), // one exception at 2^64-1
		[]byte("\x01\x08a\x00\x01\x00\x03\x81"),                                   // bitmap: seqs 2 and 9
	} {
		if err := NewKnowledge().UnmarshalBinary(ok); err != nil {
			t.Errorf("%x: %v", ok, err)
		}
	}
}

// TestKnowledgeDecodeCapsBitmapExceptions: a bitmap byte decodes to eight
// exceptions, so the bytes alone do not bound what a frame builds. A frame
// of two all-ones bitmaps whose bits together pass maxExceptions by eight
// (8 MiB) is refused before the second row's set is sized: decoding it
// allocates well under the input's own size, where building the set would
// allocate gigabytes.
func TestKnowledgeDecodeCapsBitmapExceptions(t *testing.T) {
	data := []byte("\x02\x08a\x00\x08b\x00\x02\x00\x03\xff\x00") // rows a, b at base 0; a: seqs 2..9
	data = prim.AppendUvarint(data, maxExceptions/8<<1|1)
	data = append(data, bytes.Repeat([]byte{0xff}, maxExceptions/8)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewKnowledge().UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%d exceptions decoded, want at most %d", maxExceptions+8, maxExceptions)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the frame allocated %d bytes, want under 1 MiB", grew)
	}
}

// hostileFrames returns valid knowledge encodings at the sizes a frame
// allows, shaped to make a careless decoder superlinear: one creator's
// exceptions as a long gap list, many creators whose names share their
// prefixes, and many such creators each carrying a bitmap.
func hostileFrames(exceptions, creators int) (gaps, prefixed, bitmaps []byte) {
	gaps = []byte("\x01\x08a\x00\x01\x00") // one row, "a" at base 0, and its exceptions
	gaps = prim.AppendUvarint(gaps, uint64(exceptions)<<1)
	for range exceptions {
		gaps = append(gaps, 9) // seqs 11, 21, …: sparse enough for gaps to beat a bitmap
	}
	prefixed = prim.AppendUvarint(nil, uint64(creators))
	prev := ""
	for i := range creators {
		name := fmt.Sprintf("dtn://node/%06d", i)
		prefixed = append(prim.AppendFrontCoded(prefixed, prev, name), 1) // base 1
		prev = name
	}
	bitmaps = prim.AppendUvarint(append([]byte(nil), prefixed...), uint64(creators))
	prefixed = append(prefixed, 0) // no exceptions
	for range creators {
		bitmaps = append(bitmaps, 0, 4<<1|1, 0x55, 0x55, 0x55, 0x55) // the next row: seqs 3, 5, …, 33
	}
	return gaps, prefixed, bitmaps
}

// TestKnowledgeDecodeHostileShapesStayNearLinear decodes the hostile shapes
// at a size where a quadratic decoder takes seconds to a minute (a
// per-element sorted insert took 15 s on 200k exceptions, a per-creator
// insert and reindex 53 s on 50k creators) and a linear decoder
// milliseconds, even under -race. Descending orders no longer decode: rows
// must ascend by creator, and gaps ascend by construction.
func TestKnowledgeDecodeHostileShapesStayNearLinear(t *testing.T) {
	gaps, prefixed, bitmaps := hostileFrames(200000, 50000)
	for _, tc := range []struct {
		name  string
		data  []byte
		count uint64
	}{
		{"200k exceptions as gaps", gaps, 200000},
		{"50k prefixed creators", prefixed, 50000},
		{"50k prefixed creators with bitmaps", bitmaps, 50000 * 17},
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
		if enc, _ := k.MarshalBinary(); !bytes.Equal(enc, tc.data) || k.WireSize() != len(enc) {
			t.Errorf("%s: re-encodes to %d bytes (WireSize %d), not the %d decoded", tc.name, len(enc), k.WireSize(), len(tc.data))
		}
	}
}

// TestKnowledgeAddHostileOrdersStayNearLinear learns the same two shapes one
// version at a time, the way a peer's batch reaches knowledge (every item's
// version and each entry of its Prior list) and the way a log replays: 200k
// exceptions of one creator in descending order and 50k creators in
// descending order, then merges each result into a clone of another
// knowledge and encodes the union, which sorts its rows once. Inserting into a sorted exception slice, or into a creator-sorted
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
		enc, _ := merged.MarshalBinary()
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: Add, Merge and encode took %v, want < 2s", tc.name, took)
		}
		if merged.WireSize() != len(enc) {
			t.Errorf("%s: WireSize() = %d, encoding is %d bytes", tc.name, merged.WireSize(), len(enc))
		}
		if k.Count() != tc.count || merged.Count() != tc.count+1 {
			t.Errorf("%s: learned %d versions and merged %d, want %d and %d", tc.name, k.Count(), merged.Count(), tc.count, tc.count+1)
		}
		checkCanonical(t, k, tc.name)
		checkCanonical(t, merged, tc.name+" merged")
	}
}
