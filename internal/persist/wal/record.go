package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

// Record framing, shared by the live log, segment files and the manifest:
//
//	length  uint32 LE   bytes that follow the 8-byte header (kind + payload)
//	crc     uint32 LE   IEEE CRC-32 over kind + payload
//	kind    uint8       record discriminator
//	payload             record body in the internal/wire binary codec
//
// The length field lets a reader skip to the next record without decoding;
// the CRC catches torn and bit-flipped records. A live log may legitimately
// end mid-record (the crash the WAL exists to survive), so its reader
// truncates at the first frame that does not check out; segment files were
// fully written and fsynced before the manifest referenced them, so the same
// condition there is corruption and fails recovery loudly.

// Record kinds. Values 1–4 were the retired gob bodies and are never
// reassigned: a CRC-valid record of such a kind is corruption, like any
// other kind its file does not expect.
const (
	// recMeta carries a replica.Snapshot's fields but its entries: the
	// replica-level durable state outside the store (identity, counters,
	// knowledge, policy state).
	recMeta = 5
	// recBatch carries one journaled []replica.Mutation batch (live log).
	recBatch = 6
	// recPut carries one store.EntrySnapshot (segment files).
	recPut = 7
	// recRemove carries one item.ID (segment files).
	recRemove = 8
	// recManifest carries the manifest (the MANIFEST file's only record).
	recManifest = 9
)

// recordHeaderLen is the fixed frame header size (length + crc).
const recordHeaderLen = 8

// maxRecordLen bounds a single record frame, enforced on BOTH sides: a
// writer rejects an oversized payload before anything hits the log (an
// fsynced-then-unrecoverable record would otherwise poison recovery
// silently), and a reader treats a larger length field as corruption — far
// beyond what one mutation batch or entry can encode, and rejecting it keeps
// a hostile or scrambled log from driving a multi-gigabyte allocation (the
// PR 7 digest-overflow lesson). A variable so tests can lower the limit
// without materializing 64 MiB payloads.
var maxRecordLen = uint32(64 << 20)

// errCorrupt marks a structurally invalid record where the format promises
// one (segment files, records before a log's truncation point).
var errCorrupt = errors.New("wal: corrupt record")

// errRecordTooLarge marks a payload whose framed length would exceed
// maxRecordLen. It is reported by the encode side, before any write.
var errRecordTooLarge = errors.New("wal: record exceeds maximum frame length")

var crcTable = crc32.MakeTable(crc32.IEEE)

// beginRecord reserves a frame header plus kind byte on buf, so a binary
// body can be appended in place — no intermediate payload slice. The caller
// must finish the frame with finishRecord, passing the returned start offset.
func beginRecord(buf []byte, kind uint8) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	return buf, start
}

// finishRecord back-patches the length and CRC of the frame opened at start.
// An oversized body is rejected here, before the caller can write it: a
// frame the reader would refuse must never reach the log.
func finishRecord(buf []byte, start int) ([]byte, error) {
	body := buf[start+recordHeaderLen:]
	if uint64(len(body)) > uint64(maxRecordLen) {
		return nil, recordTooLargeError(body[0], len(body)-1)
	}
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(body, crcTable))
	return buf, nil
}

// appendBatchRecord frames one journaled mutation batch as a record,
// appending straight into buf — the append hot path's zero-allocation writer.
func appendBatchRecord(buf []byte, muts []replica.Mutation) ([]byte, error) {
	buf, start := beginRecord(buf, recBatch)
	buf, err := wire.AppendMutations(buf, muts)
	if err != nil {
		return nil, err
	}
	return finishRecord(buf, start)
}

// recordTooLargeError formats the encode-side limit violation; it lives off
// the hot path because the happy path never reaches it.
func recordTooLargeError(kind uint8, payloadLen int) error {
	return fmt.Errorf("%w: kind %d payload is %d bytes (max %d)",
		errRecordTooLarge, kind, payloadLen, maxRecordLen-1)
}

// appendMetaRecord frames a snapshot's replica-level state as a meta record,
// which heads every log generation and segment and wholesale-replaces the
// recovered meta state. The entries are left out: segments carry them as put
// records, and the log as batches, which also carry the knowledge
// incrementally (MutLearn/MutMerge) between meta records.
func appendMetaRecord(buf []byte, m *replica.Snapshot) ([]byte, error) {
	buf, start := beginRecord(buf, recMeta)
	buf = append(buf, wire.CodecVersion)
	buf = prim.AppendString(buf, string(m.ID))
	buf = prim.AppendUvarint(buf, m.Seq)
	buf = prim.AppendStrings(buf, m.OwnAddresses)
	// Nil FilterAddresses means "the filter is not an address filter and
	// survives restarts via configuration" — distinct from an empty address
	// filter, so the nil-aware encoding is load-bearing here.
	buf = prim.AppendStrings(buf, m.FilterAddresses)
	buf = prim.AppendBytes(buf, m.Knowledge)
	buf = prim.AppendUvarint(buf, m.NextArrival)
	buf = prim.AppendBytes(buf, m.PolicyState)
	buf = prim.AppendUvarint(buf, m.Epoch)
	return finishRecord(buf, start)
}

// appendPutRecord frames one stored-entry snapshot as a record (segment
// files).
func appendPutRecord(buf []byte, e *store.EntrySnapshot) ([]byte, error) {
	buf, start := beginRecord(buf, recPut)
	buf = append(buf, wire.CodecVersion)
	buf = wire.AppendEntrySnapshot(buf, e)
	return finishRecord(buf, start)
}

// appendRemoveRecord frames one removed item ID as a record (segment files).
func appendRemoveRecord(buf []byte, id item.ID) ([]byte, error) {
	buf, start := beginRecord(buf, recRemove)
	buf = append(buf, wire.CodecVersion)
	buf = itemcodec.AppendItemID(buf, id)
	return finishRecord(buf, start)
}

// record is one decoded frame.
type record struct {
	kind    uint8
	payload []byte
}

// readRecord parses the frame at data[off:]. ok is false when the bytes at
// off cannot be a complete, checksum-valid frame — the caller decides
// whether that is a truncatable tail (live log) or corruption (segment).
func readRecord(data []byte, off int) (rec record, next int, ok bool) {
	if off < 0 || len(data)-off < recordHeaderLen {
		return record{}, 0, false
	}
	length := binary.LittleEndian.Uint32(data[off : off+4])
	if length == 0 || length > maxRecordLen || int(length) > len(data)-off-recordHeaderLen {
		return record{}, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
	body := data[off+recordHeaderLen : off+recordHeaderLen+int(length)]
	if crc32.Checksum(body, crcTable) != crc {
		return record{}, 0, false
	}
	return record{kind: body[0], payload: body[1:]}, off + recordHeaderLen + int(length), true
}

// checkCodecVersion strips and validates the leading codec-version byte of a
// record payload.
func checkCodecVersion(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", errCorrupt)
	}
	if payload[0] != wire.CodecVersion {
		return nil, fmt.Errorf("%w: codec version %d, want %d", errCorrupt, payload[0], wire.CodecVersion)
	}
	return payload[1:], nil
}

// decodeMeta, decodeBatch, decodePut, decodeRemove decode the typed bodies.
func decodeMeta(rec record) (replica.Snapshot, error) {
	var m replica.Snapshot
	body, err := checkCodecVersion(rec.payload)
	if err != nil {
		return m, err
	}
	d := wire.NewDecoder(body)
	m.ID = vclock.ReplicaID(d.String())
	m.Seq = d.Uvarint()
	m.OwnAddresses = d.Strings()
	m.FilterAddresses = d.Strings()
	m.Knowledge = d.BytesCopy()
	m.NextArrival = d.Uvarint()
	m.PolicyState = d.BytesCopy()
	m.Epoch = d.Uvarint()
	if err := d.Finish(); err != nil {
		return m, fmt.Errorf("%w: meta: %v", errCorrupt, err)
	}
	return m, nil
}

func decodeBatch(rec record) ([]replica.Mutation, error) {
	muts, err := wire.DecodeMutations(rec.payload)
	if err != nil {
		return nil, fmt.Errorf("%w: batch: %v", errCorrupt, err)
	}
	return muts, nil
}

func decodePut(rec record) (store.EntrySnapshot, error) {
	var e store.EntrySnapshot
	body, err := checkCodecVersion(rec.payload)
	if err != nil {
		return e, err
	}
	d := wire.NewDecoder(body)
	es := d.EntrySnapshot()
	if err := d.Finish(); err != nil {
		return e, fmt.Errorf("%w: put: %v", errCorrupt, err)
	}
	if es == nil || es.Item == nil {
		return e, fmt.Errorf("%w: put record without item", errCorrupt)
	}
	return *es, nil
}

// recordItemID returns the item ID a put or remove body leads with (the
// itemcodec.AppendItemID layout), the creator viewed in place: merges order
// records by it without decoding, or allocating for, anything else.
func recordItemID(rec record) (creator []byte, num uint64, err error) {
	body, err := checkCodecVersion(rec.payload)
	if err != nil {
		return nil, 0, err
	}
	d := prim.NewDecoder(body)
	creator = d.View(d.Uvarint())
	num = d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: item ID: %v", errCorrupt, err)
	}
	return creator, num, nil
}

func decodeRemove(rec record) (item.ID, error) {
	body, err := checkCodecVersion(rec.payload)
	if err != nil {
		return item.ID{}, err
	}
	d := wire.NewDecoder(body)
	id := d.ItemID()
	if err := d.Finish(); err != nil {
		return item.ID{}, fmt.Errorf("%w: remove: %v", errCorrupt, err)
	}
	return id, nil
}
