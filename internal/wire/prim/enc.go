// Package prim holds the primitive layer of the internal/wire binary codec:
// append-style encoders and a sticky-error Decoder for varints, fixed-width
// integers, floats, strings and byte slices. It is a leaf — it imports
// nothing from this module — so packages that internal/wire itself imports
// (the routing policies, whose request types wire names in its closed tag
// set) can share the one layout instead of growing their own. The
// conventions are documented on package wire.
package prim

import (
	"encoding/binary"
	"math"
)

// The append functions mirror encoding/binary's AppendX shape: each appends
// the encoding of its value to buf and returns the extended slice. Callers
// that reuse one buffer across messages get steady-state zero-allocation
// encoding; callers that pass nil get a minimal throwaway slice.

// AppendUvarint appends v as an unsigned LEB128 varint.
func AppendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// AppendVarint appends v as a zigzag varint (small magnitudes of either sign
// stay short).
func AppendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendUint32 appends v as fixed 4-byte little-endian.
func AppendUint32(buf []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(buf, v)
}

// AppendUint64 appends v as fixed 8-byte little-endian.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// AppendFloat64 appends v's IEEE-754 bit pattern as fixed 8-byte
// little-endian.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendString appends a uvarint length followed by the raw bytes. The empty
// string and a "missing" string are indistinguishable; use AppendBytes when
// nil must survive the round trip.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends b with a shifted count that preserves nil-vs-empty:
// uvarint 0 for nil, len(b)+1 followed by the bytes otherwise. Several
// message fields carry meaning in that distinction (a nil MutMerge knowledge
// is a poison marker; a nil FilterAddrs means "not an address filter").
func AppendBytes(buf []byte, b []byte) []byte {
	if b == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b))+1)
	return append(buf, b...)
}

// AppendStrings appends a string slice with the same shifted-count
// nil-vs-empty convention as AppendBytes.
func AppendStrings(buf []byte, ss []string) []byte {
	if ss == nil {
		return append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ss))+1)
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// maxFrontShared is the longest prefix a front-coded name shares with the
// name before it. Front coding writes a sorted list of names as LevelDB
// writes a block's keys: each name against its predecessor ("" for the
// first), behind one uvarint that packs the shared-prefix length under the
// suffix length (suffix<<3 | shared), so a suffix under 16 bytes costs one
// header byte, as AppendString's length does.
const maxFrontShared = 7

// frontHeader returns the header of s written against prev and the length
// of the prefix it shares.
func frontHeader(prev, s string) (h uint64, shared int) {
	for shared < min(len(prev), len(s), maxFrontShared) && prev[shared] == s[shared] {
		shared++
	}
	return uint64(len(s)-shared)<<3 | uint64(shared), shared
}

// AppendFrontCoded appends s front-coded against prev.
func AppendFrontCoded(buf []byte, prev, s string) []byte {
	h, shared := frontHeader(prev, s)
	return append(binary.AppendUvarint(buf, h), s[shared:]...)
}

// The size functions return the length of what the append function of the
// same name writes, for callers that account bytes without encoding.

// SizeUvarint returns the length of AppendUvarint's output.
func SizeUvarint(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// SizeVarint returns the length of AppendVarint's output.
func SizeVarint(v int64) int {
	return SizeUvarint(uint64(v<<1) ^ uint64(v>>63))
}

// SizeString returns the length of AppendString's output.
func SizeString(s string) int {
	return SizeUvarint(uint64(len(s))) + len(s)
}

// SizeFrontCoded returns the length of AppendFrontCoded's output.
func SizeFrontCoded(prev, s string) int {
	h, shared := frontHeader(prev, s)
	return SizeUvarint(h) + len(s) - shared
}

// SizeStrings returns the length of AppendStrings' output.
func SizeStrings(ss []string) int {
	if ss == nil {
		return 1
	}
	n := SizeUvarint(uint64(len(ss)) + 1)
	for _, s := range ss {
		n += SizeString(s)
	}
	return n
}

// SizeBytes returns the length of AppendBytes' output.
func SizeBytes(b []byte) int {
	if b == nil {
		return 1
	}
	return SizeUvarint(uint64(len(b))+1) + len(b)
}
