package vclock

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"replidtn/internal/wire/prim"
)

// The knowledge wire format names each creator once, in creator order, so
// equal knowledge encodes to equal bytes and a name shares its prefix with
// its predecessor's (prim.AppendFrontCoded):
//
//	uvarint nRows   { front-coded name, uvarint base } * nRows
//	uvarint nExc    { uvarint ref: row position less the previous ref, less 1
//	                  (the first counts from -1), then the row's exceptions:
//	                  uvarint n<<1 and n uvarint gaps (each seq less the one
//	                  before, less 1; the first counts from base+1), or
//	                  uvarint n<<1|1 and an n-byte bitmap, bit i marking
//	                  seq base+2+i } * nExc
//
// An exception is never base+1 (it would be folded into the base), so both
// forms start at base+2; the encoder writes the shorter, gaps on a tie, and
// a bitmap's last byte is never zero.

// AppendBinary implements encoding.BinaryAppender: it appends the exact
// MarshalBinary encoding to buf and returns the extended slice, so callers
// assembling larger frames (the internal/wire codec) reuse one buffer
// instead of marshaling into a throwaway allocation.
func (k *Knowledge) AppendBinary(buf []byte) ([]byte, error) {
	k.sortRows()
	buf = prim.AppendUvarint(buf, uint64(len(k.rows)))
	prev, nExc := "", 0
	for i := range k.rows {
		w := &k.rows[i]
		buf = prim.AppendFrontCoded(buf, prev, string(w.creator))
		buf = prim.AppendUvarint(buf, w.base)
		prev = string(w.creator)
		if len(w.extra) > 0 {
			nExc++
		}
	}
	buf = prim.AppendUvarint(buf, uint64(nExc))
	var scratch [64]uint64
	last := -1
	for i := range k.rows {
		w := &k.rows[i]
		if len(w.extra) == 0 {
			continue
		}
		buf = prim.AppendUvarint(buf, uint64(i-last-1))
		last = i
		if _, n := w.exceptionsSize(scratch[:0]); n > 0 {
			buf = prim.AppendUvarint(buf, uint64(n)<<1|1)
			at := len(buf)
			buf = slices.Grow(buf, n)[:at+n]
			clear(buf[at:])
			for s := range w.extra {
				bit := s - w.base - 2
				buf[at+int(bit/8)] |= 1 << (bit % 8)
			}
			continue
		}
		buf = prim.AppendUvarint(buf, uint64(len(w.extra))<<1)
		s0 := w.base + 1
		for _, s := range w.sortedExtra(scratch[:0]) {
			buf = prim.AppendUvarint(buf, s-s0-1)
			s0 = s
		}
	}
	return buf, nil
}

// exceptionsSize returns the encoded size of w's exceptions (there is at
// least one) in the shorter form and, when that is the bitmap, its length
// in bytes. Gaps are all one byte when the exceptions span under 130 seqs,
// so only a wider row sorts them, into buf, to size its gaps.
func (w *row) exceptionsSize(buf []uint64) (size, bitmap int) {
	span := w.top - w.base - 2 // the bitmap's last bit, and no gap is larger
	gaps, last := len(w.extra), w.base+1
	if span >= 128 {
		gaps = 0
		for _, s := range w.sortedExtra(buf) {
			gaps += prim.SizeUvarint(s - last - 1)
			last = s
		}
	}
	size = prim.SizeUvarint(uint64(len(w.extra))<<1) + gaps
	n := int(span/8) + 1
	if bm := prim.SizeUvarint(uint64(n)<<1|1) + n; bm < size {
		return bm, n
	}
	return size, 0
}

// maxExceptions bounds the exceptions one encoding decodes to. A gap costs
// a byte at least but a bitmap byte holds eight exceptions, so the bytes
// alone would let a 64 MiB frame (the transport's and the WAL's limit) build
// 2^29; the cap holds it at 2^26, what such a frame held as version 1's gap
// lists.
const maxExceptions = 1 << 26

// decodeRows decodes an encoding's rows in time linear in its length,
// rejecting what the encoder never writes: rows out of creator order or
// repeated, a reference past the last row (references ascend, so no row's
// exceptions come twice), an empty row or exception entry, a bitmap ending
// in a zero byte, a forged count, an exception past 2^64-1, and more than
// maxExceptions exceptions.
func decodeRows(data []byte) ([]row, error) {
	d := prim.NewDecoder(data)
	n := d.Uvarint()
	rows := make([]row, 0, min(n, uint64(d.Remaining())/2)) // two bytes a row at least
	prev := ""
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		name := d.FrontCoded(prev)
		base := d.Uvarint()
		if d.Err() != nil {
			break
		}
		if i > 0 && name <= prev {
			return nil, fmt.Errorf("creator %q follows %q: rows out of creator order", name, prev)
		}
		rows = append(rows, row{creator: ReplicaID(name), base: base})
		prev = name
	}
	nExc := d.Uvarint()
	last := uint64(math.MaxUint64) // -1: the first reference counts from before row 0
	budget := uint64(maxExceptions)
	for j := uint64(0); j < nExc && d.Err() == nil; j++ {
		ref := d.Uvarint()
		if d.Err() != nil {
			break
		}
		if ref >= uint64(len(rows))-last-1 {
			return nil, fmt.Errorf("exceptions of row %d+%d, past the %d rows", last+1, ref, len(rows))
		}
		last += ref + 1
		rows[last].decodeExceptions(d, &budget)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	for _, w := range rows {
		if w.base == 0 && len(w.extra) == 0 {
			return nil, fmt.Errorf("empty row for creator %q", w.creator)
		}
	}
	return rows, nil
}

// decodeExceptions reads the exceptions of w, whose base is set, taking
// their number from budget before it sizes the set.
func (w *row) decodeExceptions(d *prim.Decoder, budget *uint64) {
	h := d.Uvarint()
	n := h >> 1
	// base+2 must not overflow, and each gap or bitmap byte takes a byte.
	if d.Err() == nil && (w.base >= math.MaxUint64-1 || n == 0 || n > uint64(d.Remaining())) {
		d.Fail(fmt.Errorf("%d exceptions above %q's base %d in %d bytes", n, w.creator, w.base, d.Remaining()))
	}
	if d.Err() != nil {
		return
	}
	var bitmap []byte
	count := n
	if h&1 != 0 {
		bitmap, count = d.View(n), 0
		for _, b := range bitmap {
			count += uint64(bits.OnesCount8(b))
		}
		if bitmap[n-1] == 0 {
			d.Fail(fmt.Errorf("%q's exception bitmap ends in a zero byte", w.creator))
		}
	}
	if count > *budget {
		d.Fail(fmt.Errorf("%d exceptions of %q past the %d a frame may decode", count, w.creator, maxExceptions))
	}
	if d.Err() != nil {
		return
	}
	*budget -= count
	w.extra, w.owned = make(map[uint64]struct{}, count), true
	if bitmap != nil {
		for i, b := range bitmap {
			for ; b != 0; b &= b - 1 {
				bit := uint64(i)*8 + uint64(bits.TrailingZeros8(b))
				if bit >= math.MaxUint64-w.base-1 {
					d.Fail(fmt.Errorf("bitmap bit %d past base %d overflows", bit, w.base))
					return
				}
				w.top = w.base + 2 + bit
				w.extra[w.top] = struct{}{}
			}
		}
		return
	}
	w.top = w.base + 1
	for j := uint64(0); j < n && d.Err() == nil; j++ {
		gap := d.Uvarint()
		if gap >= math.MaxUint64-w.top {
			d.Fail(fmt.Errorf("exception %d past %d overflows", gap, w.top))
			return
		}
		w.top += gap + 1
		w.extra[w.top] = struct{}{}
	}
}

// WireSize returns the exact MarshalBinary length of the knowledge without
// building the encoding, so sync byte accounting stays allocation-free: one
// pass over the rows per mutation, not per call, that sorts only the
// exception sets spanning 130 seqs or more.
func (k *Knowledge) WireSize() int {
	if k.wireSize != 0 {
		return k.wireSize
	}
	k.sortRows()
	if k.names == 0 {
		prev := ""
		for _, w := range k.rows {
			k.names += prim.SizeFrontCoded(prev, string(w.creator))
			prev = string(w.creator)
		}
	}
	var scratch [64]uint64
	n := prim.SizeUvarint(uint64(len(k.rows))) + k.names
	nExc, last := 0, -1
	for i := range k.rows {
		w := &k.rows[i]
		n += prim.SizeUvarint(w.base)
		if len(w.extra) == 0 {
			continue
		}
		size, _ := w.exceptionsSize(scratch[:0])
		n += prim.SizeUvarint(uint64(i-last-1)) + size
		nExc, last = nExc+1, i
	}
	k.wireSize = n + prim.SizeUvarint(uint64(nExc))
	return k.wireSize
}
