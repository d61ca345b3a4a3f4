package vclock

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A Digest is a compact, lossy summary of a Knowledge value used by the v2
// sync protocol: the contiguous base vector travels exactly (it is already
// O(replicas) and is what gives the substrate its guarantees), while the
// sparse exception set — the part that grows with out-of-order learning — is
// summarized by a Bloom filter sized from the live exception count and a
// target false-positive rate (the parameter choice analyzed by Marandi et
// al. for Bloom-filter knowledge exchange in DTNs).
//
// The filter has no false negatives: every true exception answers
// MayHaveException == true, so a sync source that skips maybe-contained
// versions never retransmits a version the target provably has. A false
// positive, however, would make the source silently withhold a version the
// target lacks; the source therefore treats any maybe answer above the base
// as ambiguity and demands an exact-knowledge fallback round instead of
// guessing (see replica.HandleSyncRequest). That keeps digest-mode syncs
// byte-identical to exact-knowledge syncs while shipping a fraction of the
// bytes whenever no candidate collides with the filter.
//
// The zero value is not usable; build digests with Knowledge.Digest and
// UnmarshalBinary.
type Digest struct {
	base Vector
	// count is the number of exceptions summarized into the filter.
	count uint64
	// k is the number of hash probes per version.
	k uint32
	// bits is the filter, m = 64*len(bits) bits wide.
	bits []uint64
}

// DefaultDigestFPRate is the target false-positive rate used when the
// caller does not choose one. At 1% the filter costs ~9.6 bits per
// exception — roughly a third of the exact varint encoding for typical
// sequence numbers — while keeping fallback rounds rare.
const DefaultDigestFPRate = 0.01

// maxDigestProbes caps the hash-probe count a digest may use or a decoded
// frame may claim; beyond this the filter math is degenerate and a large k
// is only useful to an adversary burning the decoder's CPU.
const maxDigestProbes = 64

// Digest summarizes the knowledge at the given target false-positive rate
// (0 or out-of-range selects DefaultDigestFPRate). The filter width follows
// the standard optimum m = -n·ln(p)/(ln 2)² with k = (m/n)·ln 2 probes.
func (k *Knowledge) Digest(fpRate float64) *Digest {
	if !(fpRate > 0 && fpRate < 1) {
		fpRate = DefaultDigestFPRate
	}
	d := &Digest{base: k.Base()}
	n := k.ExceptionCount()
	if n == 0 {
		return d
	}
	d.count = uint64(n)
	mBits := int(math.Ceil(float64(n) * -math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	words := (mBits + 63) / 64
	probes := int(math.Round(float64(words*64) / float64(n) * math.Ln2))
	if probes < 1 {
		probes = 1
	}
	if probes > maxDigestProbes {
		probes = maxDigestProbes
	}
	d.bits = make([]uint64, words)
	d.k = uint32(probes)
	for _, w := range k.rows {
		for s := range w.extra {
			d.add(Version{Replica: w.creator, Seq: s})
		}
	}
	return d
}

// Base returns a copy of the digest's exact base vector.
func (d *Digest) Base() Vector { return d.base.Clone() }

// ExceptionCount returns the number of exceptions summarized by the filter.
func (d *Digest) ExceptionCount() uint64 { return d.count }

// BaseSeq returns the exact base vector's entry for replica r (0 when none).
func (d *Digest) BaseSeq(r ReplicaID) uint64 { return d.base[r] }

// MayHaveException reports whether v may be one of the summarized
// exceptions. True exceptions always answer true (no false negatives);
// a true answer for a non-exception is a false positive at roughly the
// digest's target rate.
func (d *Digest) MayHaveException(v Version) bool {
	if d.count == 0 || len(d.bits) == 0 {
		return false
	}
	h1, h2 := hashVersion(v)
	m := uint64(len(d.bits)) * 64
	for i := uint32(0); i < d.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if d.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

func (d *Digest) add(v Version) {
	h1, h2 := hashVersion(v)
	m := uint64(len(d.bits)) * 64
	for i := uint32(0); i < d.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		d.bits[bit/64] |= 1 << (bit % 64)
	}
}

// hashVersion derives the two independent 64-bit hashes driving the
// Kirsch–Mitzenmacher double-hashing scheme g_i = h1 + i·h2. FNV-1a over
// the replica ID and big-endian sequence gives h1; h2 is a mixed, odd
// variant so successive probes stride the whole filter.
func hashVersion(v Version) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(v.Replica); i++ {
		h ^= uint64(v.Replica[i])
		h *= prime64
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= (v.Seq >> uint(shift)) & 0xff
		h *= prime64
	}
	// splitmix64-style finalization decorrelates h2 from h1.
	z := h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return h, z | 1
}

// The digest wire format extends the knowledge codec's conventions:
//
//	uvarint nBase   { uvarint len(id), id bytes, uvarint seq } * nBase
//	uvarint count   uvarint k   uvarint nWords   8-byte LE word * nWords
//
// Base entries are sorted by replica ID so equal digests encode to equal
// bytes. An empty exception set encodes count = k = nWords = 0.

// MarshalBinary implements encoding.BinaryMarshaler.
func (d *Digest) MarshalBinary() ([]byte, error) {
	return d.AppendBinary(nil)
}

// AppendBinary implements encoding.BinaryAppender (see Knowledge.AppendBinary).
func (d *Digest) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendVector(buf, d.base)
	buf = binary.AppendUvarint(buf, d.count)
	buf = binary.AppendUvarint(buf, uint64(d.k))
	buf = binary.AppendUvarint(buf, uint64(len(d.bits)))
	for _, w := range d.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the same
// hostile-input posture as the knowledge codec: the bytes come from a peer,
// so forged counts must never drive allocations, degenerate probe counts
// are rejected, and zero base entries are dropped for canonical form.
func (d *Digest) UnmarshalBinary(data []byte) error {
	pos := 0
	base, err := readVector(data, &pos)
	if err != nil {
		return fmt.Errorf("vclock: decode digest: %w", err)
	}
	count, err := readUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("vclock: decode digest: %w", err)
	}
	probes, err := readUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("vclock: decode digest: %w", err)
	}
	nWords, err := readUvarint(data, &pos)
	if err != nil {
		return fmt.Errorf("vclock: decode digest: %w", err)
	}
	if probes > maxDigestProbes {
		return fmt.Errorf("vclock: digest claims %d hash probes (max %d)", probes, maxDigestProbes)
	}
	// Every filter word is exactly 8 bytes, so the word count must match
	// the remaining input exactly — anything else is forged or truncated.
	// Compare by division: nWords*8 wraps for nWords >= 2^61, which would
	// let a forged count pass the check and drive the allocation below.
	if rem := len(data) - pos; rem%8 != 0 || nWords != uint64(rem/8) {
		return fmt.Errorf("vclock: digest claims %d filter words, %d bytes remain", nWords, rem)
	}
	if count > 0 && (probes == 0 || nWords == 0) {
		return fmt.Errorf("vclock: digest summarizes %d exceptions with an empty filter", count)
	}
	if count == 0 && (probes != 0 || nWords != 0) {
		return fmt.Errorf("vclock: digest carries a filter for zero exceptions")
	}
	d.base = base
	d.count = count
	d.k = uint32(probes)
	d.bits = nil
	if nWords > 0 {
		d.bits = make([]uint64, nWords)
		for i := range d.bits {
			d.bits[i] = binary.LittleEndian.Uint64(data[pos:])
			pos += 8
		}
	}
	return nil
}

// WireSize returns the exact MarshalBinary length without allocating,
// for byte accounting on the sync hot path.
func (d *Digest) WireSize() int {
	n := vectorWireSize(d.base)
	n += uvarintLen(d.count) + uvarintLen(uint64(d.k)) + uvarintLen(uint64(len(d.bits)))
	return n + 8*len(d.bits)
}
