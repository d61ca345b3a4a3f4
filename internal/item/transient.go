package item

import (
	"maps"
	"math"
	"math/bits"
)

// Transient is host-specific, never-replicated per-copy metadata attached to
// a stored item. Routing policies use it for fields like a hop-count-limiting
// TTL (Epidemic routing) or a remaining-copies allowance (Spray and Wait).
// Mutating transient fields does not create a new item version, mirroring the
// internal replication-platform interface the paper describes for adjusting
// the spray "copies" field without triggering re-synchronization.
//
// Transient is a value: a fixed set of integer fields plus a presence mask,
// copied on assignment, so a stored copy and a transmitted one never share
// state. The zero Transient has no field present.
type Transient struct {
	v   [NumFields]int32
	has uint8
}

// Field names one transient field. Fields are numbered in the order of their
// names, which is the order the codec writes them in.
type Field uint8

// The transient fields the bundled routing policies use.
const (
	// FieldCopies is the remaining copy allowance used by Spray and Wait.
	FieldCopies Field = iota
	// FieldHops counts the hops this copy has traversed from its source;
	// the receiving replica increments it on arrival. Used by MaxProp.
	FieldHops
	// FieldTTL is the remaining hop budget used by Epidemic routing.
	FieldTTL
	// NumFields is the number of transient fields.
	NumFields
)

var fieldNames = [NumFields]string{"copies", "hops", "ttl"}

// String returns the field's name, its key in the codec.
func (f Field) String() string { return fieldNames[f] }

// Get returns a field's value and whether it is present; an absent field
// reads 0.
func (t Transient) Get(f Field) (int, bool) { return int(t.v[f]), t.Has(f) }

// Has reports whether the field is present.
func (t Transient) Has(f Field) bool { return t.has&(1<<f) != 0 }

// Len returns the number of present fields.
func (t Transient) Len() int { return bits.OnesCount8(t.has) }

// Set stores a field, saturating v to the int32 range.
func (t *Transient) Set(f Field, v int) {
	t.v[f] = int32(min(max(v, math.MinInt32), math.MaxInt32))
	t.has |= 1 << f
}

// TransientMap is the persistence form of a Transient, one key per present
// field, held by a store snapshot's entries (store.EntrySnapshot). It exists
// so a durable-state comparison can drop a field it treats as crash-volatile
// (ROADMAP item 4(a) removes that need, and this type with it).
type TransientMap map[Field]int

// Map returns t's persistence form; nil when no field is present.
func (t Transient) Map() TransientMap {
	if t.has == 0 {
		return nil
	}
	m := make(TransientMap, t.Len())
	for f := range NumFields {
		if v, ok := t.Get(f); ok {
			m[f] = v
		}
	}
	return m
}

// Transient converts the persistence form back; keys that name no field are
// ignored.
func (m TransientMap) Transient() Transient {
	var t Transient
	for f, v := range m {
		if f < NumFields {
			t.Set(f, v)
		}
	}
	return t
}

// Has reports whether the field is present.
func (m TransientMap) Has(f Field) bool {
	_, ok := m[f]
	return ok
}

// Clone copies the map; nil stays nil.
func (m TransientMap) Clone() TransientMap { return maps.Clone(m) }
