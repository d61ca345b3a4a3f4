// Package wire is the versioned, length-prefixed binary codec shared by the
// WAL persistence backend (record bodies and the manifest,
// internal/persist/wal) and the TCP transport (frame bodies,
// internal/transport) — the only encoding either has. Encoding appends into a
// caller-supplied buffer so a steady-state writer allocates nothing, and
// decoding walks a byte slice with zero-copy views, materializing only the
// values that outlive the input. The primitives live in the leaf package
// internal/wire/prim, which the routing policies share for their requests
// and persisted state; the item layer lives in the leaf
// internal/wire/itemcodec, which the replica imports for a batch's bytes.
//
// Layout conventions, shared by every message:
//
//   - integers are unsigned LEB128 varints (encoding/binary uvarint) unless a
//     fixed width is called out; signed integers use zigzag varints
//   - strings are uvarint length + raw bytes
//   - byte slices and string slices that must round-trip nil-vs-empty use a
//     shifted count: uvarint 0 encodes nil, n encodes a value of length n-1
//   - maps encode sorted by key so equal values produce equal bytes
//   - float64 is its IEEE-754 bit pattern as fixed 8-byte little-endian
//
// Every top-level message starts with a one-byte codec version so layouts can
// evolve; see DESIGN.md §14 for the versioning rules. Decoders never trust a
// decoded count to size an allocation: counts are checked against the bytes
// actually remaining first (each element costs at least one byte), so a
// hostile frame cannot turn a forged count into memory pressure.
package wire

import (
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

// CodecVersion is the current layout version written as the first byte of
// every top-level message (WAL record bodies, transport frame bodies).
// Decoders accept exactly the versions they know; an unknown version is a
// decode error, never a guess. Version 2 writes knowledge as one
// front-coded row per creator (internal/vclock's codec.go); version 1's base
// and exception sections have no reader.
const CodecVersion = 2

// A Decoder walks one encoded message: the primitive decoder (sticky errors,
// zero-copy views, forged-count checks), the item layer's methods, and this
// package's methods for the filter, routing and knowledge layers.
type Decoder struct{ itemcodec.Decoder }

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{itemcodec.Decoder{Decoder: *prim.NewDecoder(data)}}
}
