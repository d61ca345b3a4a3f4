package vclock

import (
	"bytes"
	"slices"
	"testing"
)

// The knowledge codec is one of the parse-hostile surfaces in the system
// (beside the transport's frame stream): every byte of a knowledge
// encoding arrives from a peer, so decoding must never panic, never trust a
// forged count as an allocation size, and always yield a canonical structure
// whose Merge/Equal/Count behave as set operations. These fuzz targets
// complement the static dtnlint pass with dynamic checking; `make fuzz-smoke`
// runs them briefly on every CI run, and the seed corpus under testdata/fuzz
// (regenerated with `go test -tags corpusgen -run WriteFuzzCorpus`) pins the
// interesting shapes: canonical, non-canonical, truncated, forged-count.

// decodeCanonical unmarshals data, reporting ok=false for invalid encodings.
func decodeCanonical(t *testing.T, data []byte) (*Knowledge, bool) {
	t.Helper()
	k := NewKnowledge()
	if err := k.UnmarshalBinary(data); err != nil {
		return nil, false
	}
	return k, true
}

// checkCanonical fails the test unless k is in canonical form: one row per
// creator, which the index finds, in creator order unless marked unsorted,
// no empty row, no exception at or below the base or contiguous with it,
// and each row's recorded largest exception exact.
func checkCanonical(t *testing.T, k *Knowledge, what string) {
	t.Helper()
	if len(k.index) != len(k.rows) {
		t.Fatalf("%s: %d rows, %d indexed creators", what, len(k.rows), len(k.index))
	}
	for i, w := range k.rows {
		if j, ok := k.index[w.creator]; !ok || j != i {
			t.Fatalf("%s: row %d (%q) indexed at %d, %v", what, i, w.creator, j, ok)
		}
		if i > 0 && !k.unsorted && w.creator <= k.rows[i-1].creator {
			t.Fatalf("%s: row %d (%q) follows %q but the rows are not marked unsorted", what, i, w.creator, k.rows[i-1].creator)
		}
		if w.base == 0 && len(w.extra) == 0 {
			t.Fatalf("%s: empty row for %q", what, w.creator)
		}
		for s := range w.extra {
			if s <= w.base {
				t.Fatalf("%s: exception %s:%d at or below base %d", what, w.creator, s, w.base)
			}
			if s == w.base+1 {
				t.Fatalf("%s: exception %s:%d contiguous with base %d (not compacted)", what, w.creator, s, w.base)
			}
		}
		if len(w.extra) > 0 && w.top != slices.Max(w.sortedExtra(nil)) {
			t.Fatalf("%s: %q's largest exception is %d, row records %d", what, w.creator, slices.Max(w.sortedExtra(nil)), w.top)
		}
	}
}

// sampleVersions returns a bounded sample of the versions k contains: for
// each replica the first few and the last base version, plus every
// exception. Bounded so a fuzzed base seq of 2^60 cannot make the test
// enumerate forever.
func sampleVersions(k *Knowledge) []Version {
	var vs []Version
	for _, w := range k.rows {
		for q := uint64(1); q <= w.base && q <= 9; q++ {
			vs = append(vs, Version{Replica: w.creator, Seq: q})
		}
		if w.base > 0 {
			vs = append(vs, Version{Replica: w.creator, Seq: w.base})
		}
		for s := range w.extra {
			vs = append(vs, Version{Replica: w.creator, Seq: s})
		}
	}
	return vs
}

func FuzzKnowledgeDecode(f *testing.F) {
	for _, seed := range decodeSeeds() {
		f.Add(seed.data)
	}
	// The hostile shapes, small enough to mutate quickly.
	gaps, prefixed, bitmaps := hostileFrames(2000, 500)
	f.Add(gaps)
	f.Add(prefixed)
	f.Add(bitmaps)
	f.Fuzz(func(t *testing.T, data []byte) {
		k, ok := decodeCanonical(t, data)
		if !ok {
			return // invalid encodings must only error, never panic
		}
		checkCanonical(t, k, "decoded")

		// Marshal is deterministic: equal knowledge, equal bytes.
		enc1, err := k.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal decoded knowledge: %v", err)
		}
		enc2, err := k.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("marshal not deterministic: %x vs %x", enc1, enc2)
		}

		// Decode∘encode round-trips to the same version set.
		back := NewKnowledge()
		if err := back.UnmarshalBinary(enc1); err != nil {
			t.Fatalf("re-decode canonical encoding: %v", err)
		}
		if !back.Equal(k) {
			t.Fatalf("round-trip changed knowledge: %v -> %v", k, back)
		}

		// Contains agrees with the structure for a bounded sample.
		for _, v := range sampleVersions(k) {
			if !k.Contains(v) {
				t.Fatalf("decoded knowledge %v does not contain its own version %v", k, v)
			}
		}
		if k.Contains(Version{}) {
			t.Fatal("knowledge contains the zero sentinel version")
		}
	})
}

func FuzzKnowledgeMerge(f *testing.F) {
	seeds := decodeSeeds()
	for i, a := range seeds {
		f.Add(a.data, seeds[(i+1)%len(seeds)].data)
	}
	f.Fuzz(func(t *testing.T, da, db []byte) {
		a, ok := decodeCanonical(t, da)
		if !ok {
			return
		}
		b, ok := decodeCanonical(t, db)
		if !ok {
			return
		}

		// Merge is commutative: a∪b == b∪a (decode fresh copies, Merge
		// mutates the receiver).
		ab, _ := decodeCanonical(t, da)
		ab.Merge(b)
		ba, _ := decodeCanonical(t, db)
		ba.Merge(a)
		if !ab.Equal(ba) {
			t.Fatalf("merge not commutative:\n a=%v\n b=%v\n a∪b=%v\n b∪a=%v", a, b, ab, ba)
		}
		checkCanonical(t, ab, "merged")

		// Merge never forgets: every sampled version of either input is
		// contained in the union.
		for _, v := range append(sampleVersions(a), sampleVersions(b)...) {
			if !ab.Contains(v) {
				t.Fatalf("merge forgot %v:\n a=%v\n b=%v\n a∪b=%v", v, a, b, ab)
			}
		}

		// Count(a∪b) equals the size of the set union, computed
		// independently: element-wise max of the bases plus the distinct
		// exceptions above that joint base. Exception folding during Merge
		// must preserve this (each fold trades one exception for one base
		// increment).
		union := make(map[ReplicaID]uint64)
		for _, k := range []*Knowledge{a, b} {
			for _, w := range k.rows {
				union[w.creator] = max(union[w.creator], w.base)
			}
		}
		distinct := make(map[Version]struct{})
		for _, k := range []*Knowledge{a, b} {
			for _, w := range k.rows {
				for s := range w.extra {
					if s > union[w.creator] {
						distinct[Version{Replica: w.creator, Seq: s}] = struct{}{}
					}
				}
			}
		}
		var want uint64
		for _, s := range union {
			want += s
		}
		want += uint64(len(distinct))
		if got := ab.Count(); got != want {
			t.Fatalf("merged count %d, want %d:\n a=%v\n b=%v\n a∪b=%v", got, want, a, b, ab)
		}

		// Merge is idempotent: folding b in again changes nothing.
		again, _ := decodeCanonical(t, da)
		again.Merge(b)
		again.Merge(b)
		if !again.Equal(ab) {
			t.Fatalf("merge not idempotent:\n a∪b=%v\n (a∪b)∪b=%v", ab, again)
		}
	})
}

// decodeSeeds returns the in-code seed corpus, by name: the same shapes the
// checked-in testdata/fuzz corpus pins (see corpusgen_test.go) — canonical
// encodings, one that takes the bitmap form, and one frame per rule the
// decoder enforces.
func decodeSeeds() []namedFrame {
	encEmpty, _ := NewKnowledge().MarshalBinary()

	k := NewKnowledge()
	for s := uint64(1); s <= 5; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	for _, s := range []uint64{1, 2, 3, 5, 7} {
		k.Add(Version{Replica: "b", Seq: s})
	}
	encTypical, _ := k.MarshalBinary()
	for s := uint64(9); s <= 40; s += 2 {
		k.Add(Version{Replica: "bus07", Seq: s})
	}
	encBitmap, _ := k.MarshalBinary()

	return append([]namedFrame{
		{"empty", encEmpty},
		{"typical", encTypical},
		{"bitmap", encBitmap},
	}, rejectedFrames()...)
}
