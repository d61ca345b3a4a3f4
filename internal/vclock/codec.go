package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// The knowledge wire format is a compact, deterministic varint encoding:
//
//	uvarint nBase    { uvarint len(id), id bytes, uvarint seq } * nBase
//	uvarint nExtra   { uvarint len(id), id bytes, uvarint nSeqs, uvarint seq* } * nExtra
//
// Entries are sorted by replica ID so equal knowledge always encodes to equal
// bytes, which keeps wire-level tests and caching deterministic.

var errTruncated = errors.New("vclock: truncated knowledge encoding")

func appendDoc(buf []byte, doc knowledgeDoc) ([]byte, error) {
	baseIDs := sortedIDs(len(doc.Base))
	for r := range doc.Base {
		baseIDs = append(baseIDs, string(r))
	}
	sort.Strings(baseIDs)
	buf = binary.AppendUvarint(buf, uint64(len(baseIDs)))
	for _, id := range baseIDs {
		buf = appendString(buf, id)
		buf = binary.AppendUvarint(buf, doc.Base[ReplicaID(id)])
	}
	extraIDs := sortedIDs(len(doc.Extra))
	for r := range doc.Extra {
		extraIDs = append(extraIDs, string(r))
	}
	sort.Strings(extraIDs)
	buf = binary.AppendUvarint(buf, uint64(len(extraIDs)))
	for _, id := range extraIDs {
		buf = appendString(buf, id)
		seqs := doc.Extra[ReplicaID(id)]
		buf = binary.AppendUvarint(buf, uint64(len(seqs)))
		for _, s := range seqs {
			buf = binary.AppendUvarint(buf, s)
		}
	}
	return buf, nil
}

func decodeDoc(data []byte) (knowledgeDoc, error) {
	doc := knowledgeDoc{Base: NewVector(), Extra: make(map[ReplicaID][]uint64)}
	pos := 0
	nBase, err := readUvarint(data, &pos)
	if err != nil {
		return doc, err
	}
	for i := uint64(0); i < nBase; i++ {
		id, err := readString(data, &pos)
		if err != nil {
			return doc, err
		}
		seq, err := readUvarint(data, &pos)
		if err != nil {
			return doc, err
		}
		doc.Base[ReplicaID(id)] = seq
	}
	nExtra, err := readUvarint(data, &pos)
	if err != nil {
		return doc, err
	}
	for i := uint64(0); i < nExtra; i++ {
		id, err := readString(data, &pos)
		if err != nil {
			return doc, err
		}
		nSeqs, err := readUvarint(data, &pos)
		if err != nil {
			return doc, err
		}
		// Every sequence costs at least one byte, so a count exceeding the
		// remaining input is forged — reject it before trusting it as an
		// allocation size.
		if nSeqs > uint64(len(data)-pos) {
			return doc, errTruncated
		}
		seqs := make([]uint64, 0, nSeqs)
		for j := uint64(0); j < nSeqs; j++ {
			s, err := readUvarint(data, &pos)
			if err != nil {
				return doc, err
			}
			seqs = append(seqs, s)
		}
		doc.Extra[ReplicaID(id)] = seqs
	}
	if pos != len(data) {
		return doc, fmt.Errorf("vclock: %d trailing bytes in knowledge encoding", len(data)-pos)
	}
	return doc, nil
}

// appendVector encodes a bare version vector with the same conventions as
// the knowledge base section: uvarint count, then (id, seq) pairs sorted by
// replica ID for deterministic bytes.
func appendVector(buf []byte, v Vector) []byte {
	ids := sortedIDs(len(v))
	for r := range v {
		ids = append(ids, string(r))
	}
	sort.Strings(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = appendString(buf, id)
		buf = binary.AppendUvarint(buf, v[ReplicaID(id)])
	}
	return buf
}

// readVector decodes a vector written by appendVector, dropping zero entries
// so decoded vectors are canonical regardless of what the peer sent.
func readVector(data []byte, pos *int) (Vector, error) {
	n, err := readUvarint(data, pos)
	if err != nil {
		return nil, err
	}
	v := NewVector()
	for i := uint64(0); i < n; i++ {
		id, err := readString(data, pos)
		if err != nil {
			return nil, err
		}
		seq, err := readUvarint(data, pos)
		if err != nil {
			return nil, err
		}
		if seq > 0 {
			v[ReplicaID(id)] = seq
		}
	}
	return v, nil
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

// vectorWireSize returns the appendVector length of v without allocating.
func vectorWireSize(v Vector) int {
	n := uvarintLen(uint64(len(v)))
	for r, s := range v {
		n += uvarintLen(uint64(len(r))) + len(r) + uvarintLen(s)
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
	n := vectorWireSize(k.base)
	n += uvarintLen(uint64(len(k.extra)))
	for r, ex := range k.extra {
		n += uvarintLen(uint64(len(r))) + len(r) + uvarintLen(uint64(len(ex)))
		for s := range ex {
			n += uvarintLen(s)
		}
	}
	k.wireSize = n
	return n
}

func sortedIDs(capacity int) []string { return make([]string, 0, capacity) }

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
