// Package sorted holds routing state as it travels and is persisted: a map
// kept as entries in ascending key order, the internal/wire layout of a map.
// Lookups are binary searches, merges one pass over two maps, in place or
// into a third map's array, and publishing is copy-on-write: the owner's
// writes copy while what Share handed out is not all given back (Release).
package sorted

import (
	"fmt"
	"slices"
	"strings"

	"replidtn/internal/wire/prim"
)

// Entry is one key and its value.
type Entry[K ~string, V any] struct {
	Key K
	Val V
}

// Map is a sorted map; the zero Map is empty. Copies of a Map share its
// entries, so only its owner writes it, handing copies out through Share.
type Map[K ~string, V any] struct {
	e      []Entry[K, V]
	shares int // copies of e held elsewhere: writes copy e, and reset it, while any is out
}

// FromMap returns m's entries as a Map.
func FromMap[K ~string, V any](m map[K]V) Map[K, V] {
	e := make([]Entry[K, V], 0, len(m))
	for k, v := range m {
		e = append(e, Entry[K, V]{k, v})
	}
	slices.SortFunc(e, func(a, b Entry[K, V]) int { return strings.Compare(string(a.Key), string(b.Key)) })
	return Map[K, V]{e: e}
}

// Len returns the number of entries.
func (m Map[K, V]) Len() int { return len(m.e) }

// Entries returns the entries in key order, for reading only.
func (m Map[K, V]) Entries() []Entry[K, V] { return m.e }

// Clone returns a copy of m, with room for one more entry, for its holder.
func (m Map[K, V]) Clone() Map[K, V] {
	return Map[K, V]{e: append(make([]Entry[K, V], 0, len(m.e)+1), m.e...)}
}

// Assign makes m, which is not shared, a copy of b, in m's own array when it
// is big enough: for a holder that keeps what it is handed.
func (m *Map[K, V]) Assign(b Map[K, V]) { m.e = append(m.e[:0], b.e...) }

// Share returns m for publishing, counting the share.
func (m *Map[K, V]) Share() Map[K, V] {
	m.shares++
	return Map[K, V]{e: m.e, shares: 1}
}

// Release gives back v, a share of m read no more, unless m has copied its
// entries since or v was itself shared.
func (m *Map[K, V]) Release(v Map[K, V]) {
	if m.shares > 0 && v.shares == 1 && cap(m.e) > 0 && cap(v.e) > 0 && &m.e[:1][0] == &v.e[:1][0] {
		m.shares--
	}
}

// Search returns where k is or would be inserted in e, and whether it is.
func Search[K ~string, V any](e []Entry[K, V], k K) (int, bool) {
	i, j := 0, len(e)
	for i < j {
		if h := int(uint(i+j) >> 1); e[h].Key < k {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(e) && e[i].Key == k
}

// Get returns k's value and whether m holds it.
func (m Map[K, V]) Get(k K) (v V, ok bool) {
	if i, ok := Search(m.e, k); ok {
		return m.e[i].Val, true
	}
	return v, false
}

// Set sets k's value.
func (m *Map[K, V]) Set(k K, v V) {
	if m.shares > 0 {
		*m = m.Clone()
	}
	if i, ok := Search(m.e, k); ok {
		m.e[i].Val = v
	} else {
		m.e = slices.Insert(m.e, i, Entry[K, V]{k, v})
	}
}

// Update merges b into m as Merge does, in place unless m is shared or an
// entry of b alone would overtake the walk through m.
func (m *Map[K, V]) Update(b Map[K, V], f func(k K, cur, v *V) (V, bool)) {
	out := m.e[:0]
	if m.shares > 0 {
		out = make([]Entry[K, V], 0, max(len(m.e), len(b.e)))
	}
	m.e, m.shares = merge(out, m.e, b.e, f), 0
}

// Adopt merges b into m, keeping for each key m's entry, or b's where m has
// none or newer(b's value, m's) holds. It writes only what changes, in place
// unless m is shared or an entry of b alone would overtake the walk.
func (m *Map[K, V]) Adopt(bm Map[K, V], newer func(v, cur *V) bool) {
	a, b := m.e, bm.e
	out, inPlace := a[:0], true // inPlace: out is a prefix of a
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var e *Entry[K, V]
		switch {
		case i < len(a) && j < len(b) && a[i].Key == b[j].Key:
			if e, i, j = &a[i], i+1, j+1; newer(&b[j-1].Val, &e.Val) {
				e = &b[j-1]
			}
		case j == len(b) || i < len(a) && a[i].Key < b[j].Key:
			e, i = &a[i], i+1
		default:
			e, j = &b[j], j+1
		}
		switch {
		case !inPlace:
		case len(out) < i && e == &a[i-1]: // a's entry, where it stands
			out = out[:i]
			continue
		case len(out) == i: // about to overwrite a[i]
			out, inPlace, m.shares = append(make([]Entry[K, V], 0, len(out)+len(a)-i+len(b)-j+1), out...), false, 0
		case m.shares > 0: // copy m whole, then go on writing what changes
			a, m.shares = append(make([]Entry[K, V], 0, len(a)), a...), 0
			out = a[:len(out)]
		}
		out = append(out, *e)
	}
	m.e = out
}

// Merge makes m, which is not shared and shares no array with b, what f
// keeps of a and b: it walks them in key order, and f gets each key's value
// on each side (nil where absent) and returns its own. m is written in its
// own array, grown only as f keeps entries; a's array is m's when m is a.
func (m *Map[K, V]) Merge(a, b Map[K, V], f func(k K, av, bv *V) (V, bool)) {
	m.e = merge(m.e[:0], a.e, b.e, f)
}

// merge appends to out, an empty slice of a's array or of one of its own,
// what f keeps of a and b. In a's array it writes behind the walk, and copies
// what it has written into a new array before overtaking it.
func merge[K ~string, V any](out, a, b []Entry[K, V], f func(k K, av, bv *V) (V, bool)) []Entry[K, V] {
	inPlace := cap(out) > 0 && cap(a) > 0 && &out[:1][0] == &a[:1][0]
	for i, j := 0, 0; i < len(a) || j < len(b); {
		c := -1 // the next key is a's (< 0), b's (> 0) or both's
		if i == len(a) {
			c = 1
		} else if j < len(b) {
			if ka, kb := a[i].Key, b[j].Key; ka == kb { // the cheap test, and the usual case
				c = 0
			} else if kb < ka {
				c = 1
			}
		}
		var k K
		var av, bv *V
		if c <= 0 {
			k, av, i = a[i].Key, &a[i].Val, i+1
		}
		if c >= 0 {
			k, bv, j = b[j].Key, &b[j].Val, j+1
		}
		if v, keep := f(k, av, bv); keep {
			if inPlace && len(out) == i { // about to overwrite a[i]
				out, inPlace = append(make([]Entry[K, V], 0, len(out)+len(a)-i+len(b)-j+1), out...), false
			}
			out = append(out, Entry[K, V]{k, v})
		}
	}
	if inPlace {
		clear(a[len(out):])
	}
	return out
}

// Divide returns a new map of m's keys, each value divided by d.
func Divide[K ~string](m Map[K, float64], d float64) Map[K, float64] {
	e := make([]Entry[K, float64], len(m.e))
	for i, x := range m.e {
		e[i] = Entry[K, float64]{x.Key, x.Val / d}
	}
	return Map[K, float64]{e: e}
}

// Append appends m as a count, then each key and value (written by value).
func Append[K ~string, V any](buf []byte, m Map[K, V], value func([]byte, V) []byte) []byte {
	buf = prim.AppendUvarint(buf, uint64(len(m.e)))
	for _, e := range m.e {
		buf = value(prim.AppendString(buf, string(e.Key)), e.Val)
	}
	return buf
}

// Size returns the length of Append's output, given each value's.
func Size[K ~string, V any](m Map[K, V], value func(V) int) int {
	n := prim.SizeUvarint(uint64(len(m.e)))
	for _, e := range m.e {
		n += prim.SizeString(string(e.Key)) + value(e.Val)
	}
	return n
}

// Read decodes a map written by Append, reading each value with value. Keys
// must be strictly ascending: a map has one encoding, so unsorted or repeated
// keys are rejected rather than silently collapsed.
func Read[K ~string, V any](d *prim.Decoder, value func() V) Map[K, V] {
	n := d.Uvarint()
	if n > uint64(d.Remaining()) { // each entry costs at least a key length
		d.Fail(fmt.Errorf("wire: map count %d exceeds %d remaining bytes", n, d.Remaining()))
	}
	e := make([]Entry[K, V], 0, min(n, 256))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		if k := K(d.String()); i == 0 || k > e[i-1].Key {
			e = append(e, Entry[K, V]{k, value()})
		} else {
			d.Fail(fmt.Errorf("wire: map key %q not after %q", k, e[i-1].Key))
		}
	}
	return Map[K, V]{e: e}
}
