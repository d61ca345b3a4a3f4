package vclock

import (
	"bytes"
	"testing"
)

// The digest and delta codecs are peer-facing like the knowledge codec, so
// they get the same fuzz treatment (mirroring FuzzKnowledgeDecode): decoding
// must never panic, never trust forged counts as allocation sizes, and
// re-encoding a decoded frame must be deterministic and semantics-preserving.

func FuzzDigestDecode(f *testing.F) {
	for _, seed := range digestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if err := d.UnmarshalBinary(data); err != nil {
			return // invalid encodings must only error, never panic
		}
		for r, s := range d.base {
			if s == 0 {
				t.Fatalf("decoded digest base has zero entry for %q", r)
			}
		}

		enc1, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal decoded digest: %v", err)
		}
		enc2, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("digest marshal not deterministic: %x vs %x", enc1, enc2)
		}
		if len(enc1) != d.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", d.WireSize(), len(enc1))
		}

		var back Digest
		if err := back.UnmarshalBinary(enc1); err != nil {
			t.Fatalf("re-decode canonical encoding: %v", err)
		}
		// The canonical encoding must be a fixed point: decode∘encode is
		// byte-stable and membership answers are unchanged.
		enc3, err := back.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal re-decoded digest: %v", err)
		}
		if !bytes.Equal(enc1, enc3) {
			t.Fatalf("canonical encoding not a fixed point: %x vs %x", enc1, enc3)
		}
		for r, s := range d.base {
			if d.BaseSeq(r) != s || back.BaseSeq(r) != s {
				t.Fatalf("digest base lost its own entry %s:%d", r, s)
			}
		}
		probe := Version{Replica: "p", Seq: 12345}
		if d.MayHaveException(probe) != back.MayHaveException(probe) {
			t.Fatal("round-trip changed a membership answer")
		}
	})
}

func FuzzDeltaDecode(f *testing.F) {
	for _, seed := range deltaSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Delta
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		// The embedded knowledge decode canonicalizes like the bare codec.
		checkCanonical(t, d.Changes(), "delta changes")

		enc1, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal decoded delta: %v", err)
		}
		if len(enc1) != d.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", d.WireSize(), len(enc1))
		}
		var back Delta
		if err := back.UnmarshalBinary(enc1); err != nil {
			t.Fatalf("re-decode canonical encoding: %v", err)
		}
		if back.Epoch() != d.Epoch() || back.Gen() != d.Gen() || !back.Changes().Equal(d.Changes()) {
			t.Fatalf("round-trip changed delta: %d/%d/%v -> %d/%d/%v",
				d.Epoch(), d.Gen(), d.Changes(), back.Epoch(), back.Gen(), back.Changes())
		}

		// Applying the delta to any baseline must fold in exactly its change
		// set (Merge semantics — the substrate's safety net even if tags were
		// matched incorrectly upstream).
		base := NewKnowledge()
		base.Add(Version{Replica: "b", Seq: 1})
		base.Merge(d.Changes())
		for _, v := range sampleVersions(d.Changes()) {
			if !base.Contains(v) {
				t.Fatalf("merged baseline lost delta version %v", v)
			}
		}
	})
}

// digestSeeds returns the in-code seed corpus for FuzzDigestDecode, pinning
// canonical frames plus the reject shapes the decoder validates.
func digestSeeds() [][]byte {
	empty, _ := NewKnowledge().Digest(0.01).MarshalBinary()

	k := NewKnowledge()
	for s := uint64(1); s <= 5; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	for _, s := range []uint64{2, 3, 5, 9} {
		k.Add(Version{Replica: "b", Seq: s})
	}
	typical, _ := k.Digest(0.01).MarshalBinary()

	return [][]byte{
		empty,
		typical,
		// Truncated filter: header claims one word, body supplies none.
		[]byte("\x00\x01\x01\x01"),
		// Degenerate probe count (k = 127).
		[]byte("\x00\x01\x7f\x00"),
		// Overflowing word count: nWords = 2^61 with zero bytes remaining,
		// so nWords*8 wraps to 0 — the decoder must compare by division.
		[]byte("\x00\x01\x01\x80\x80\x80\x80\x80\x80\x80\x80\x20"),
		// Trailing byte after a valid empty digest.
		append(append([]byte{}, empty...), 0x00),
	}
}

// deltaSeeds returns the in-code seed corpus for FuzzDeltaDecode.
func deltaSeeds() [][]byte {
	emptyDelta, _ := NewDelta(1, 1, nil).MarshalBinary()

	k := NewKnowledge()
	for s := uint64(1); s <= 3; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	k.Add(Version{Replica: "b", Seq: 7})
	typical, _ := NewDelta(2, 19, k).MarshalBinary()

	return [][]byte{
		emptyDelta,
		typical,
		// Tags only, knowledge body missing entirely.
		[]byte("\x01\x01"),
		// Non-canonical embedded knowledge (exception below base).
		[]byte("\x01\x02\x01\x01a\x05\x01\x01a\x02\x02\x06"),
		// Forged exception count inside the embedded knowledge.
		[]byte("\x01\x01\x00\x01\x01a\x80\x80\x80\x80\x08"),
	}
}
