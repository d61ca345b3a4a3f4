package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The knowledge wire format is a compact, deterministic varint encoding:
//
//	uvarint nBase    { uvarint len(id), id bytes, uvarint seq } * nBase
//	uvarint nExtra   { uvarint len(id), id bytes, uvarint nSeqs, uvarint seq* } * nExtra
//
// Entries are sorted by replica ID so equal knowledge always encodes to equal
// bytes, which keeps wire-level tests and caching deterministic.

var errTruncated = errors.New("vclock: truncated knowledge encoding")

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
	buf = binary.AppendUvarint(buf, uint64(nBase))
	for _, w := range rows {
		if w.base > 0 {
			buf = appendString(buf, string(w.creator))
			buf = binary.AppendUvarint(buf, w.base)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nExtra))
	var seqs []uint64
	for _, w := range rows {
		if len(w.extra) > 0 {
			buf = appendString(buf, string(w.creator))
			buf = binary.AppendUvarint(buf, uint64(len(w.extra)))
			seqs = w.sortedExtra(seqs)
			for _, s := range seqs {
				buf = binary.AppendUvarint(buf, s)
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
	pos := 0
	for section := 0; section < 2; section++ { // base entries, then exceptions
		n, err := readUvarint(data, &pos)
		if err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			id, err := readString(data, &pos)
			if err != nil {
				return err
			}
			v, err := readUvarint(data, &pos) // the seq, or the count of seqs
			if err != nil {
				return err
			}
			w := k.edit(ReplicaID(id))
			if section == 0 {
				w.base = max(w.base, v)
				continue
			}
			for j := uint64(0); j < v; j++ {
				s, err := readUvarint(data, &pos)
				if err != nil {
					return err
				}
				if s > w.base {
					w.insert(s)
				}
			}
		}
	}
	if pos != len(data) {
		return fmt.Errorf("vclock: %d trailing bytes in knowledge encoding", len(data)-pos)
	}
	return nil
}

// uvarintLen returns the encoded length of v without encoding it.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
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
		id := uvarintLen(uint64(len(w.creator))) + len(w.creator)
		if w.base > 0 {
			nBase++
			n += id + uvarintLen(w.base)
		}
		if len(w.extra) > 0 {
			nExtra++
			n += id + uvarintLen(uint64(len(w.extra))) + w.extraSize
		}
	}
	k.wireSize = n + uvarintLen(uint64(nBase)) + uvarintLen(uint64(nExtra))
	return k.wireSize
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(data []byte, pos *int) (uint64, error) {
	v, n := binary.Uvarint(data[*pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	*pos += n
	return v, nil
}

func readString(data []byte, pos *int) (string, error) {
	n, err := readUvarint(data, pos)
	if err != nil {
		return "", err
	}
	if uint64(len(data)-*pos) < n {
		return "", errTruncated
	}
	s := string(data[*pos : *pos+int(n)])
	*pos += int(n)
	return s, nil
}
