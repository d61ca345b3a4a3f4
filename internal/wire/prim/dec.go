package prim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrTruncated reports input that ended before the message did.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing reports input that continued after the message ended.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// A Decoder walks one encoded message. Errors are sticky: after the first
// failure every accessor returns a zero value and Err/Finish report the
// original cause, so decode sequences read straight-line without per-field
// error checks. The input slice is never written; view accessors (Bytes,
// String via unsafe-free conversion) alias it, so a caller that reuses its
// read buffer must copy anything that outlives the buffer (BytesCopy, or the
// message decoders of package wire, which copy every field that escapes).
type Decoder struct {
	data []byte
	pos  int
	err  error
	// shared, when set, is a direct-mapped cache of the short strings this
	// message has already materialized (see ShareStrings).
	shared *[sharedSlots]string
}

// sharedSlots and sharedMaxLen bound a decoder's string cache: at most
// sharedSlots strings of at most sharedMaxLen bytes each, whatever the input
// says.
const (
	sharedSlots  = 128
	sharedMaxLen = 64
)

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first error the decoder hit, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

// Finish returns the sticky error, or ErrTrailing if input remains past the
// message end. Every top-level decode ends with it so a frame carrying junk
// after a valid prefix is rejected, not silently half-read.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.data) {
		return fmt.Errorf("%w: %d of %d bytes undecoded", ErrTrailing, len(d.data)-d.pos, len(d.data))
	}
	return nil
}

// Fail records err as the decoder's error unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint decodes an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.Fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.pos))
		return 0
	}
	d.pos += n
	return v
}

// Varint decodes a zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.Fail(fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, d.pos))
		return 0
	}
	d.pos += n
	return v
}

// Int decodes a uvarint that must fit a non-negative int. Counts and budgets
// travel this way; the range check keeps a hostile 2^63 from wrapping into a
// negative int behind a validator's back.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if d.err == nil && v > math.MaxInt64 {
		d.Fail(fmt.Errorf("wire: value %d overflows int", v))
		return 0
	}
	return int(v)
}

// Byte decodes one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.Fail(fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.pos))
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// Bool decodes a one-byte bool, rejecting values other than 0 and 1 so a
// frame has exactly one encoding.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err == nil && b > 1 {
		d.Fail(fmt.Errorf("wire: bool byte 0x%02x at offset %d", b, d.pos-1))
		return false
	}
	return b == 1
}

// Uint32 decodes fixed 4-byte little-endian.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 4 {
		d.Fail(fmt.Errorf("%w: uint32 at offset %d", ErrTruncated, d.pos))
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v
}

// Uint64 decodes fixed 8-byte little-endian.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data)-d.pos < 8 {
		d.Fail(fmt.Errorf("%w: uint64 at offset %d", ErrTruncated, d.pos))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

// Float64 decodes a fixed 8-byte little-endian IEEE-754 value.
func (d *Decoder) Float64() float64 {
	return math.Float64frombits(d.Uint64())
}

// View returns n bytes of the input without copying, or nil on truncation.
func (d *Decoder) View(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.data)-d.pos) < n {
		d.Fail(fmt.Errorf("%w: %d bytes at offset %d, %d remain", ErrTruncated, n, d.pos, len(d.data)-d.pos))
		return nil
	}
	b := d.data[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b
}

// ShareStrings makes String hand out the copy it already made when the
// message repeats a short string. A batch names the same few replica IDs,
// addresses and kinds in every item; sharing them saves the allocations and
// keeps a received store from holding a private copy per item. A colliding
// string takes the slot over, so the cache is bounded by construction and a
// hostile message can only make it miss.
func (d *Decoder) ShareStrings() { d.shared = new([sharedSlots]string) }

// String decodes a length-prefixed string (always a copy — Go strings are
// immutable, so this is the only safe materialization).
func (d *Decoder) String() string {
	b := d.View(d.Uvarint())
	if d.shared == nil || len(b) == 0 || len(b) > sharedMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &d.shared[h%sharedSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// FrontCoded decodes a name AppendFrontCoded wrote against prev, rejecting a
// shared prefix longer than prev. The caller checks the list's order.
func (d *Decoder) FrontCoded(prev string) string {
	h := d.Uvarint()
	shared := h & maxFrontShared
	if d.err == nil && shared > uint64(len(prev)) {
		d.Fail(fmt.Errorf("wire: name shares %d bytes with the %d-byte name before it", shared, len(prev)))
	}
	suffix := d.View(h >> 3)
	if d.err != nil {
		return ""
	}
	var b strings.Builder
	b.Grow(int(shared) + len(suffix))
	b.WriteString(prev[:shared])
	b.Write(suffix)
	return b.String()
}

// Bytes decodes a nil-aware byte slice as a zero-copy view into the input.
// The view aliases the decoder's buffer; use BytesCopy when the value
// outlives it.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	return d.View(n - 1)
}

// BytesCopy decodes a nil-aware byte slice into fresh storage.
func (d *Decoder) BytesCopy() []byte {
	b := d.Bytes()
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// Strings decodes a nil-aware string slice.
func (d *Decoder) Strings() []string {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	n--
	// Each string costs at least its one-byte length prefix, so a count
	// beyond the remaining input is forged — reject before allocating.
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("wire: string count %d exceeds %d remaining bytes", n, d.Remaining()))
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		ss = append(ss, d.String())
	}
	if d.err != nil {
		return nil
	}
	return ss
}

// Prob decodes a float64 that must be a probability. Anything outside
// [0, 1] — NaN and ±Inf included — is rejected: a peer's probabilities are
// multiplied into local routing tables, where one out-of-range value would
// stick forever.
func (d *Decoder) Prob() float64 {
	v := d.Float64()
	if d.err == nil && !(v >= 0 && v <= 1) {
		d.Fail(fmt.Errorf("wire: probability %v outside [0, 1]", v))
		return 0
	}
	return v
}
