package vclock

import (
	"fmt"

	"replidtn/internal/wire/prim"
)

// A Delta carries the difference between a replica's current knowledge and
// the frontier it last sent a specific peer, so recurring peer pairs — the
// common case on the bus trace and on community mobility — stop re-shipping a
// knowledge frame that is overwhelmingly unchanged between encounters.
//
// Correctness rests on knowledge being set-monotone: a replica only ever
// learns versions, and exception compaction is set-preserving, so an earlier
// frontier is always a subset of the current knowledge and
// Merge(frontier, changes) reconstructs the current set exactly.
//
// The epoch and generation tags make the scheme crash-safe. Epoch is the
// sending replica's incarnation number (bumped on every restore from a
// snapshot); Gen counts knowledge frames sent to this peer within the
// incarnation. A source applies a delta only when it holds a cached frontier
// with the same epoch and exactly the preceding generation — anything else
// (source restarted and lost the cache, target restarted and reset its
// counters, a frame was lost in between) makes it demand a full-knowledge
// resync rather than risk acting on a stale baseline.
type Delta struct {
	epoch   uint64
	gen     uint64
	changes *Knowledge
}

// NewDelta builds a delta frame. A nil changes is treated as empty
// knowledge (a recurring encounter where nothing was learned in between).
func NewDelta(epoch, gen uint64, changes *Knowledge) *Delta {
	if changes == nil {
		changes = NewKnowledge()
	}
	return &Delta{epoch: epoch, gen: gen, changes: changes}
}

// Epoch returns the sender's incarnation tag.
func (d *Delta) Epoch() uint64 { return d.epoch }

// Gen returns the per-peer knowledge-frame generation within the epoch.
func (d *Delta) Gen() uint64 { return d.gen }

// Changes returns the knowledge learned since the previous generation.
func (d *Delta) Changes() *Knowledge { return d.changes }

// DiffSince returns the knowledge that, merged into old, yields k — i.e.
// Merge(old.Clone(), k.DiffSince(old)).Equal(k) holds whenever old is an
// earlier snapshot of the same monotonically-growing knowledge (old ⊆ k).
// Base entries appear only where the base advanced; exceptions only where
// old does not already contain them.
func (k *Knowledge) DiffSince(old *Knowledge) *Knowledge {
	out := NewKnowledge()
	for _, w := range k.rows {
		var o row
		if i, ok := old.index[w.creator]; ok {
			o = old.rows[i]
		}
		d := row{creator: w.creator}
		if w.base > o.base {
			d.base = w.base
		}
		for s := range w.extra {
			if !o.has(s) {
				d.insert(s)
			}
		}
		// An exception of k whose base did not advance lands in d with a zero
		// base, which may leave it contiguous from zero; fold for canonical
		// form (set-preserving, exactly like decode).
		d.compact()
		if d.base > 0 || len(d.extra) > 0 {
			out.rows = append(out.rows, d)
		}
	}
	out.reindex()
	out.unsorted = k.unsorted
	return out
}

// The delta wire format prefixes the knowledge codec with the two tags:
//
//	uvarint epoch   uvarint gen   knowledge encoding (see codec.go)

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *Delta) MarshalBinary() ([]byte, error) {
	return d.AppendBinary(nil)
}

// AppendBinary implements encoding.BinaryAppender (see Knowledge.AppendBinary).
func (d *Delta) AppendBinary(buf []byte) ([]byte, error) {
	buf = prim.AppendUvarint(buf, d.epoch)
	buf = prim.AppendUvarint(buf, d.gen)
	return d.changes.AppendBinary(buf)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The embedded
// knowledge decode canonicalizes and rejects forged counts, so a hostile
// delta is no more dangerous than a hostile knowledge frame.
func (d *Delta) UnmarshalBinary(data []byte) error {
	dec := prim.NewDecoder(data)
	epoch, gen := dec.Uvarint(), dec.Uvarint()
	changes := NewKnowledge()
	err := dec.Err()
	if err == nil {
		err = changes.UnmarshalBinary(data[len(data)-dec.Remaining():])
	}
	if err != nil {
		return fmt.Errorf("vclock: decode delta: %w", err)
	}
	d.epoch, d.gen, d.changes = epoch, gen, changes
	return nil
}

// WireSize returns the exact MarshalBinary length without allocating.
func (d *Delta) WireSize() int {
	return prim.SizeUvarint(d.epoch) + prim.SizeUvarint(d.gen) + d.changes.WireSize()
}
