// Package itemcodec is the item layer of the internal/wire binary codec: the
// layouts of item IDs, versions, items, transients and sync-batch items. A
// leaf beside internal/wire/prim, it imports only item, vclock and prim, so
// the replica, which internal/wire imports, charges a batch item what the
// wire encodes for it (BatchItemSize). Conventions: see package wire.
//
// Decoded values copy every field out of the input buffer: an *item.Item
// escapes into the store and must not alias a reusable read buffer — nor a
// frame read for it alone: one kept 100-byte item would pin the whole frame
// it arrived in.
//
// Each appender has a size function returning exactly the length it writes,
// so a frame can be reserved once — or refused, if it is over the wire limit
// — before a byte of it is encoded.
package itemcodec

import (
	"fmt"
	"math"
	"slices"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// A Decoder walks one encoded message: the primitive decoder plus this
// package's methods for the item layer.
type Decoder struct{ prim.Decoder }

// appendVersion appends replica ID + sequence.
func appendVersion(buf []byte, v vclock.Version) []byte {
	buf = prim.AppendString(buf, string(v.Replica))
	return prim.AppendUvarint(buf, v.Seq)
}

func sizeVersion(v vclock.Version) int {
	return prim.SizeString(string(v.Replica)) + prim.SizeUvarint(v.Seq)
}

// Version decodes a version.
func (d *Decoder) Version() vclock.Version {
	return vclock.Version{Replica: vclock.ReplicaID(d.String()), Seq: d.Uvarint()}
}

// AppendVersions appends a nil-aware version slice.
func AppendVersions(buf []byte, vs []vclock.Version) []byte {
	if vs == nil {
		return append(buf, 0)
	}
	buf = prim.AppendUvarint(buf, uint64(len(vs))+1)
	for _, v := range vs {
		buf = appendVersion(buf, v)
	}
	return buf
}

// Versions decodes a nil-aware version slice.
func (d *Decoder) Versions() []vclock.Version {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	n--
	// Each version costs at least two bytes (ID length prefix + seq).
	if n > uint64(d.Remaining()) {
		d.Fail(fmt.Errorf("wire: version count %d exceeds %d remaining bytes", n, d.Remaining()))
		return nil
	}
	vs := make([]vclock.Version, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		vs = append(vs, d.Version())
	}
	if d.Err() != nil {
		return nil
	}
	return vs
}

// AppendItemID appends creator + number.
func AppendItemID(buf []byte, id item.ID) []byte {
	buf = prim.AppendString(buf, string(id.Creator))
	return prim.AppendUvarint(buf, id.Num)
}

// ItemID decodes an item ID.
func (d *Decoder) ItemID() item.ID {
	return item.ID{Creator: vclock.ReplicaID(d.String()), Num: d.Uvarint()}
}

// AppendTransient appends a transient as a sorted key/value map: the count
// of present fields plus one (0 when none), then each field's name and value
// as a float64, in name order.
func AppendTransient(buf []byte, t item.Transient) []byte {
	if t.Len() == 0 {
		return append(buf, 0)
	}
	buf = prim.AppendUvarint(buf, uint64(t.Len())+1)
	for f := range item.NumFields {
		if v, ok := t.Get(f); ok {
			buf = prim.AppendString(buf, f.String())
			buf = prim.AppendFloat64(buf, float64(v))
		}
	}
	return buf
}

func sizeTransient(t item.Transient) int {
	n := 1
	for f := range item.NumFields {
		if t.Has(f) {
			n += prim.SizeString(f.String()) + 8
		}
	}
	return n
}

// Transient decodes AppendTransient's layout, in any field order. It fails
// on a name that is no field, a field named twice, and a value an int32
// does not hold exactly (NaN, infinite, fractional or out of range).
func (d *Decoder) Transient() item.Transient {
	var t item.Transient
	n := d.Uvarint()
	for i := uint64(1); i < n && d.Err() == nil; i++ {
		name := d.View(d.Uvarint())
		v := d.Float64()
		f := item.Field(0)
		for f < item.NumFields && string(name) != f.String() {
			f++
		}
		switch {
		case d.Err() != nil:
		case f == item.NumFields:
			d.Fail(fmt.Errorf("wire: unknown transient field %q", name))
		case t.Has(f):
			d.Fail(fmt.Errorf("wire: transient field %s repeated", f))
		case v != math.Trunc(v) || v < math.MinInt32 || v > math.MaxInt32:
			d.Fail(fmt.Errorf("wire: transient field %s = %v is not a 32-bit integer", f, v))
		default:
			t.Set(f, int(v))
		}
	}
	if d.Err() != nil {
		return item.Transient{}
	}
	return t
}

// appendAttrs appends a nil-aware string map, keys sorted.
func appendAttrs(buf []byte, attrs map[string]string) []byte {
	if attrs == nil {
		return append(buf, 0)
	}
	buf = prim.AppendUvarint(buf, uint64(len(attrs))+1)
	var arr [8]string
	keys := arr[:0]
	for k := range attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys) // generic: the stack-backed slice does not escape
	for _, k := range keys {
		buf = prim.AppendString(buf, k)
		buf = prim.AppendString(buf, attrs[k])
	}
	return buf
}

// attrs decodes a nil-aware string map.
func (d *Decoder) attrs() map[string]string {
	n := d.Uvarint()
	if n == 0 {
		return nil
	}
	n--
	// Each entry costs at least two length prefixes.
	if n > uint64(d.Remaining())/2 {
		d.Fail(fmt.Errorf("wire: attr count %d exceeds %d remaining bytes", n, d.Remaining()))
		return nil
	}
	attrs := make(map[string]string, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.String()
		attrs[k] = d.String()
	}
	if d.Err() != nil {
		return nil
	}
	return attrs
}

// AppendItem appends a full item: ID, version, prior versions, tombstone
// flag, metadata, payload.
func AppendItem(buf []byte, it *item.Item) []byte {
	buf = AppendItemID(buf, it.ID)
	buf = appendVersion(buf, it.Version)
	buf = AppendVersions(buf, it.Prior)
	buf = prim.AppendBool(buf, it.Deleted)
	buf = prim.AppendString(buf, it.Meta.Source)
	buf = prim.AppendStrings(buf, it.Meta.Destinations)
	buf = prim.AppendString(buf, it.Meta.Kind)
	buf = prim.AppendVarint(buf, it.Meta.Created)
	buf = prim.AppendVarint(buf, it.Meta.Expires)
	buf = appendAttrs(buf, it.Meta.Attrs)
	return prim.AppendBytes(buf, it.Payload)
}

// sizeItem returns the length of AppendItem's output.
func sizeItem(it *item.Item) int {
	n := prim.SizeString(string(it.ID.Creator)) + prim.SizeUvarint(it.ID.Num) + sizeVersion(it.Version)
	if it.Prior == nil {
		n++
	} else {
		n += prim.SizeUvarint(uint64(len(it.Prior)) + 1)
		for _, v := range it.Prior {
			n += sizeVersion(v)
		}
	}
	n += 1 + prim.SizeString(it.Meta.Source) + prim.SizeStrings(it.Meta.Destinations) + prim.SizeString(it.Meta.Kind)
	n += prim.SizeVarint(it.Meta.Created) + prim.SizeVarint(it.Meta.Expires)
	if it.Meta.Attrs == nil {
		n++
	} else {
		n += prim.SizeUvarint(uint64(len(it.Meta.Attrs)) + 1)
		for k, v := range it.Meta.Attrs {
			n += prim.SizeString(k) + prim.SizeString(v)
		}
	}
	return n + prim.SizeBytes(it.Payload)
}

// Item decodes a full item. Every field, including the payload, is copied
// out of the decoder's buffer.
func (d *Decoder) Item() *item.Item {
	it := &item.Item{
		ID:      d.ItemID(),
		Version: d.Version(),
		Prior:   d.Versions(),
		Deleted: d.Bool(),
	}
	it.Meta.Source = d.String()
	it.Meta.Destinations = d.Strings()
	it.Meta.Kind = d.String()
	it.Meta.Created = d.Varint()
	it.Meta.Expires = d.Varint()
	it.Meta.Attrs = d.attrs()
	it.Payload = d.BytesCopy()
	if d.Err() != nil {
		return nil
	}
	return it
}

// AppendBatchItem appends one sync-batch item: the item, the transient the
// copy carries, the priority class as a zigzag varint and the cost as a
// float64.
func AppendBatchItem(buf []byte, it *item.Item, t item.Transient, class int64, cost float64) []byte {
	buf = AppendItem(buf, it)
	buf = AppendTransient(buf, t) //lint:allow transientleak -- the batch-item layout writes the transient its caller passed; the crossing is that call, annotated in wire.AppendSyncResponse
	buf = prim.AppendVarint(buf, class)
	return prim.AppendFloat64(buf, cost)
}

// BatchItemSize returns the length of AppendBatchItem's output, what one
// batch item costs on the wire (the cost always takes 8 bytes).
func BatchItemSize(it *item.Item, t item.Transient, class int64) int {
	return sizeItem(it) + sizeTransient(t) + prim.SizeVarint(class) + 8
}

// MinBatchItemSize is the size of the smallest batch item, a zero item with
// every field at its shortest: n bytes hold at most n/MinBatchItemSize.
var MinBatchItemSize = BatchItemSize(&item.Item{}, item.Transient{}, 0)

// BatchItem decodes AppendBatchItem's layout.
func (d *Decoder) BatchItem() (it *item.Item, t item.Transient, class int64, cost float64) {
	return d.Item(), d.Transient(), d.Varint(), d.Float64()
}
