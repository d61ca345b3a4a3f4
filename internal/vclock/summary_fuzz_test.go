package vclock

import "testing"

// The delta codec is peer-facing like the knowledge codec, so it gets the
// same fuzz treatment (mirroring FuzzKnowledgeDecode): decoding must never
// panic, never trust forged counts as allocation sizes, and re-encoding a
// decoded frame must be deterministic and semantics-preserving.

func FuzzDeltaDecode(f *testing.F) {
	for _, seed := range deltaSeeds() {
		f.Add(seed.data)
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

// deltaSeeds returns the in-code seed corpus for FuzzDeltaDecode, by name:
// canonical deltas, a missing body, and each rejected knowledge frame behind
// a delta's two tags.
func deltaSeeds() []namedFrame {
	emptyDelta, _ := NewDelta(1, 1, nil).MarshalBinary()

	k := NewKnowledge()
	for s := uint64(1); s <= 3; s++ {
		k.Add(Version{Replica: "a", Seq: s})
	}
	k.Add(Version{Replica: "b", Seq: 7})
	typical, _ := NewDelta(2, 19, k).MarshalBinary()

	seeds := []namedFrame{
		{"empty", emptyDelta},
		{"typical", typical},
		{"missing-body", []byte("\x01\x01")}, // tags only
	}
	for _, f := range rejectedFrames() {
		seeds = append(seeds, namedFrame{f.name, append([]byte{1, 2}, f.data...)})
	}
	return seeds
}
