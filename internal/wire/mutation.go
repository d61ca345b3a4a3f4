package wire

import (
	"fmt"

	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

// Codecs for WAL record bodies (internal/persist/wal): journaled mutation
// batches, the body of a live-log batch record, and the stored-entry
// snapshot a put carries. Exactly the fields a Mutation's kind names are
// encoded; the rest are zero by the journal's contract, so the layout is
// per-kind rather than per-struct.

// AppendMutations appends a complete batch body: codec version, count, then
// each mutation as a kind byte plus its kind's fields.
func AppendMutations(buf []byte, muts []replica.Mutation) ([]byte, error) {
	buf = append(buf, CodecVersion)
	buf = prim.AppendUvarint(buf, uint64(len(muts)))
	for i := range muts {
		m := &muts[i]
		buf = append(buf, byte(m.Kind))
		switch m.Kind {
		case replica.MutPut:
			if m.Entry == nil || m.Entry.Item == nil {
				return nil, fmt.Errorf("wire: put mutation %d without entry", i)
			}
			buf = AppendEntrySnapshot(buf, m.Entry)
			buf = prim.AppendUvarint(buf, m.NextArrival)
		case replica.MutRemove:
			buf = itemcodec.AppendItemID(buf, m.ID)
			buf = prim.AppendUvarint(buf, m.NextArrival)
		case replica.MutLearn:
			buf = itemcodec.AppendVersions(buf, m.Versions)
			buf = prim.AppendUvarint(buf, m.Seq)
		case replica.MutMerge:
			// A nil Knowledge is the journal's poison marker for a marshal
			// failure at the source; the nil-aware encoding preserves it so
			// recovery still refuses to replay past the broken merge.
			buf = prim.AppendBytes(buf, m.Knowledge)
		case replica.MutIdentity:
			buf = prim.AppendStrings(buf, m.Own)
			// Nil FilterAddrs means "the filter is not an address filter",
			// distinct from an empty address filter — nil must round-trip.
			buf = prim.AppendStrings(buf, m.FilterAddrs)
		default:
			return nil, fmt.Errorf("wire: unknown mutation kind %d", m.Kind)
		}
	}
	return buf, nil
}

// DecodeMutations decodes a body written by AppendMutations. Every field is
// copied out of data.
func DecodeMutations(data []byte) ([]replica.Mutation, error) {
	d := NewDecoder(data)
	if ver := d.Byte(); d.Err() == nil && ver != CodecVersion {
		return nil, fmt.Errorf("wire: mutation batch codec version %d, want %d", ver, CodecVersion)
	}
	n := d.Uvarint()
	// Each mutation costs at least its kind byte.
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wire: mutation count %d exceeds %d remaining bytes", n, d.Remaining())
	}
	muts := make([]replica.Mutation, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		m := replica.Mutation{Kind: replica.MutKind(d.Byte())}
		switch m.Kind {
		case replica.MutPut:
			m.Entry = d.EntrySnapshot()
			m.NextArrival = d.Uvarint()
		case replica.MutRemove:
			m.ID = d.ItemID()
			m.NextArrival = d.Uvarint()
		case replica.MutLearn:
			m.Versions = d.Versions()
			m.Seq = d.Uvarint()
		case replica.MutMerge:
			m.Knowledge = d.BytesCopy()
		case replica.MutIdentity:
			m.Own = d.Strings()
			m.FilterAddrs = d.Strings()
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("wire: unknown mutation kind %d", m.Kind)
			}
		}
		muts = append(muts, m)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return muts, nil
}

// AppendEntrySnapshot appends a stored-entry snapshot: the item plus its
// per-copy transient state, placement flags, and arrival stamp.
func AppendEntrySnapshot(buf []byte, e *store.EntrySnapshot) []byte {
	buf = itemcodec.AppendItem(buf, e.Item)
	buf = itemcodec.AppendTransient(buf, e.Transient.Transient()) //lint:allow transientleak -- the snapshot codec: a WAL record restores the same host, so its per-copy state legitimately survives
	buf = prim.AppendBool(buf, e.Relay)
	buf = prim.AppendBool(buf, e.Local)
	return prim.AppendUvarint(buf, e.Arrival)
}

// EntrySnapshot decodes a stored-entry snapshot.
func (d *Decoder) EntrySnapshot() *store.EntrySnapshot {
	e := &store.EntrySnapshot{
		Item:      d.Item(),
		Transient: d.Transient().Map(),
		Relay:     d.Bool(),
		Local:     d.Bool(),
		Arrival:   d.Uvarint(),
	}
	if d.Err() != nil {
		return nil
	}
	return e
}
