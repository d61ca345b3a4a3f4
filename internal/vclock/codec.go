package vclock

import "replidtn/internal/wire/prim"

// The knowledge wire format is a compact, deterministic varint encoding:
//
//	uvarint nBase    { uvarint len(id), id bytes, uvarint seq } * nBase
//	uvarint nExtra   { uvarint len(id), id bytes, uvarint nSeqs, uvarint seq* } * nExtra
//
// Entries are sorted by replica ID so equal knowledge always encodes to equal
// bytes, which keeps wire-level tests and caching deterministic. The
// primitives are internal/wire/prim's, the one varint layer.

// AppendBinary implements encoding.BinaryAppender: it appends the exact
// MarshalBinary encoding to buf and returns the extended slice, so callers
// assembling larger frames (the internal/wire codec) reuse one buffer
// instead of marshaling into a throwaway allocation.
func (k *Knowledge) AppendBinary(buf []byte) ([]byte, error) {
	rows := k.byCreator()
	nBase, nExtra := 0, 0
	for _, w := range rows {
		if w.base > 0 {
			nBase++
		}
		if len(w.extra) > 0 {
			nExtra++
		}
	}
	buf = prim.AppendUvarint(buf, uint64(nBase))
	for _, w := range rows {
		if w.base > 0 {
			buf = prim.AppendString(buf, string(w.creator))
			buf = prim.AppendUvarint(buf, w.base)
		}
	}
	buf = prim.AppendUvarint(buf, uint64(nExtra))
	var seqs []uint64
	for _, w := range rows {
		if len(w.extra) > 0 {
			buf = prim.AppendString(buf, string(w.creator))
			buf = prim.AppendUvarint(buf, uint64(len(w.extra)))
			seqs = w.sortedExtra(seqs)
			for _, s := range seqs {
				buf = prim.AppendUvarint(buf, s)
			}
		}
	}
	return buf, nil
}

// decode folds an encoding into k entry by entry — a creator named twice
// shares one row — in time linear in its length whatever order the entries
// and seqs come in. The base section comes first, so an exception at or
// below its creator's base is dropped as it is read; UnmarshalBinary does
// the rest of canonicalization.
func (k *Knowledge) decode(data []byte) error {
	d := prim.NewDecoder(data)
	for section := 0; section < 2; section++ { // base entries, then exceptions
		n := d.Uvarint()
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			id := ReplicaID(d.String())
			v := d.Uvarint() // the seq, or the count of seqs
			if d.Err() != nil {
				break
			}
			w := k.edit(id)
			if section == 0 {
				w.base = max(w.base, v)
				continue
			}
			for j := uint64(0); j < v && d.Err() == nil; j++ {
				if s := d.Uvarint(); s > w.base {
					w.insert(s)
				}
			}
		}
	}
	return d.Finish()
}

// WireSize returns the exact MarshalBinary length of the knowledge without
// building the encoding, so sync byte accounting stays allocation-free; the
// walk over every exception runs once per mutation, not once per call.
func (k *Knowledge) WireSize() int {
	if k.wireSize != 0 {
		return k.wireSize
	}
	nBase, nExtra, n := 0, 0, 0
	for _, w := range k.rows {
		id := prim.SizeUvarint(uint64(len(w.creator))) + len(w.creator)
		if w.base > 0 {
			nBase++
			n += id + prim.SizeUvarint(w.base)
		}
		if len(w.extra) > 0 {
			nExtra++
			n += id + prim.SizeUvarint(uint64(len(w.extra))) + w.extraSize
		}
	}
	k.wireSize = n + prim.SizeUvarint(uint64(nBase)) + prim.SizeUvarint(uint64(nExtra))
	return k.wireSize
}
