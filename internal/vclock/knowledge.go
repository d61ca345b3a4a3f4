package vclock

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
)

// Knowledge is the set of versions a replica has learned about, represented
// compactly as one row per creator: a base (every seq up to it is known) plus
// a sparse set of exception seqs beyond it. Exceptions are compacted into the
// base automatically as gaps fill in, keeping the structure proportional to
// the number of replicas in steady state.
//
// Knowledge is exchanged during synchronization so the source can determine
// exactly which of its stored versions the target has not yet seen; this is
// what gives the substrate at-most-once delivery without per-message
// acknowledgement lists.
//
// The zero value is not usable; call NewKnowledge.
//
// Clone is copy-on-write: clones share storage with their source until either
// side mutates, so taking a clone is O(1). This is what lets a replica attach
// its knowledge to every outgoing synchronization request without deep-copying
// the whole structure per sync. The first write after a clone copies the row
// array, and only a row whose exceptions it changes has its exception set
// copied. Shared storage is never mutated in place, so a clone remains safe
// to read concurrently with further mutation of its source (and vice versa).
// Once every clone is given back (Release), the source writes in place again.
//
// Rows are kept in creator order, the order the encoding lists them in, and
// exception sets are hash sets, so learning a version costs O(1) expected
// time whatever order a peer's batch comes in.
type Knowledge struct {
	// rows holds one row per creator with anything known, in creator order
	// but for the creators learned since the last sort (see sortRows).
	rows []row
	// index maps each creator to its row's position.
	index map[ReplicaID]int
	// shares and indexShares count the clones rows and index are shared
	// with: a mutation copies what is shared first, resetting its count.
	shares, indexShares int
	// unsorted records that a creator was appended out of order: the
	// encoding, WireSize and String sort the rows first, so learning many
	// creators in descending order sorts once instead of shifting every row
	// per creator.
	unsorted bool
	// wireSize memoises WireSize (0: not computed); mutations reset it.
	// names memoises the size of the rows' front-coded names, which only a
	// new creator changes.
	wireSize, names int
}

// row is one creator's share of a Knowledge: every seq up to base, plus
// extra, the known seqs above base+1. A row is never empty (base == 0 with no
// extra).
type row struct {
	creator ReplicaID
	base    uint64
	extra   map[uint64]struct{}
	// top is the largest exception while extra has any (it never shrinks,
	// and an exception is only ever removed by folding it into the base), so
	// WireSize sizes a row whose exceptions span under 130 seqs unsorted.
	top uint64
	// owned reports that no other Knowledge value can reach extra, so it may
	// be written in place. Copying a row array clears it.
	owned bool
}

// has reports whether seq (>= 1) is known.
func (w *row) has(seq uint64) bool {
	if seq <= w.base {
		return true
	}
	_, ok := w.extra[seq]
	return ok
}

// own makes w's exception set writable, copying it when it may be shared.
func (w *row) own() {
	if !w.owned || w.extra == nil {
		extra := make(map[uint64]struct{}, len(w.extra)+1)
		maps.Copy(extra, w.extra)
		w.extra, w.owned = extra, true
	}
}

// insert adds exception s, copying a shared set first.
func (w *row) insert(s uint64) {
	w.own()
	w.extra[s] = struct{}{}
	w.top = max(w.top, s)
}

// compact folds the exceptions that have become contiguous with the base
// into it.
func (w *row) compact() {
	if _, ok := w.extra[w.base+1]; !ok {
		return
	}
	w.own()
	for {
		if _, ok := w.extra[w.base+1]; !ok {
			return
		}
		delete(w.extra, w.base+1)
		w.base++
	}
}

// NewKnowledge returns empty knowledge.
func NewKnowledge() *Knowledge {
	return &Knowledge{}
}

// reindex points the creator index at the rows' positions, in a fresh map
// when the index is shared or missing.
func (k *Knowledge) reindex() {
	if k.index == nil || k.indexShares > 0 {
		k.index, k.indexShares = make(map[ReplicaID]int, len(k.rows)), 0
	}
	for i, w := range k.rows {
		k.index[w.creator] = i
	}
}

// unshare gives k a row array of its own, with room for one more row, when
// a clone shares it.
func (k *Knowledge) unshare() {
	if k.shares > 0 {
		rows := make([]row, len(k.rows), len(k.rows)+1)
		copy(rows, k.rows)
		for i := range rows {
			rows[i].owned = false
		}
		k.rows, k.shares = rows, 0
	}
}

// sortRows restores creator order after a creator was learned out of it.
func (k *Knowledge) sortRows() {
	if !k.unsorted {
		return
	}
	k.unshare()
	slices.SortFunc(k.rows, func(a, b row) int { return strings.Compare(string(a.creator), string(b.creator)) })
	k.reindex()
	k.unsorted = false
}

// Contains reports whether version v has been learned.
func (k *Knowledge) Contains(v Version) bool {
	if v.Seq == 0 {
		return false
	}
	i, ok := k.index[v.Replica]
	return ok && k.rows[i].has(v.Seq)
}

// CreatorView is one creator's share of a Knowledge, looked up once per run
// of that creator's versions a serve walks (store.RangeAbove, or a
// destination's runs): no lookup by replica ID per version. Valid until the
// knowledge mutates.
type CreatorView struct {
	// Base is the seq up to which every version of the creator is known.
	Base  uint64
	extra map[uint64]struct{}
}

// View returns creator r's share of the knowledge.
func (k *Knowledge) View(r ReplicaID) CreatorView {
	if i, ok := k.index[r]; ok {
		return CreatorView{Base: k.rows[i].base, extra: k.rows[i].extra}
	}
	return CreatorView{}
}

// HasException reports whether seq is known beyond the base.
func (v CreatorView) HasException(seq uint64) bool {
	_, ok := v.extra[seq]
	return ok
}

// edit returns creator c's row for writing, appending an empty row (for the
// caller to fill) when c is new. Shared storage is copied first: the row
// array on the first write after a clone, the index when a creator is added.
func (k *Knowledge) edit(c ReplicaID) *row {
	k.wireSize = 0
	k.unshare()
	i, ok := k.index[c]
	if !ok {
		if k.indexShares > 0 || k.index == nil {
			index := make(map[ReplicaID]int, len(k.rows)+1)
			maps.Copy(index, k.index)
			k.index, k.indexShares = index, 0
		}
		i, k.names = len(k.rows), 0
		if i > 0 && c < k.rows[i-1].creator {
			k.unsorted = true
		}
		k.rows = append(k.rows, row{creator: c})
		k.index[c] = i
	}
	return &k.rows[i]
}

// Add records version v as learned and compacts exceptions that have become
// contiguous with the base. It returns true if v was newly learned.
func (k *Knowledge) Add(v Version) bool {
	if v.Seq == 0 || k.Contains(v) {
		return false
	}
	w := k.edit(v.Replica)
	if w.base+1 == v.Seq {
		w.base = v.Seq
		w.compact()
	} else {
		w.insert(v.Seq)
	}
	return true
}

// Merge folds all versions known to other into k, one row at a time.
func (k *Knowledge) Merge(other *Knowledge) {
	if other == nil || other == k {
		return
	}
	for j := range other.rows {
		w := k.edit(other.rows[j].creator)
		*w = union(w, &other.rows[j])
	}
}

// union returns the row knowing everything a or b (one creator's) knows, in
// an exception set of its own.
func union(a, b *row) row {
	out := row{creator: a.creator, base: max(a.base, b.base)}
	for _, x := range [2]*row{a, b} {
		for s := range x.extra {
			if s > out.base {
				out.insert(s)
			}
		}
	}
	out.compact()
	return out
}

// ExceptionCount returns the number of versions held outside the rows' bases.
// It is a direct measure of metadata compactness.
func (k *Knowledge) ExceptionCount() int {
	n := 0
	for _, w := range k.rows {
		n += len(w.extra)
	}
	return n
}

// Size returns the total number of tracked entries: one per replica in the
// base plus one per exception.
func (k *Knowledge) Size() int {
	n := 0
	for _, w := range k.rows {
		if w.base > 0 {
			n++
		}
		n += len(w.extra)
	}
	return n
}

// Count returns the total number of versions the knowledge contains.
func (k *Knowledge) Count() uint64 {
	var n uint64
	for _, w := range k.rows {
		n += w.base + uint64(len(w.extra))
	}
	return n
}

// Clone returns a logically independent copy in O(1): the copy shares
// storage with k until either side next mutates (copy-on-write). Reading the
// clone is safe even while k keeps mutating, because mutation never writes
// shared storage in place.
func (k *Knowledge) Clone() *Knowledge { return k.CloneInto(new(Knowledge)) }

// CloneInto is Clone into dst, a value nothing reads any more, and returns
// dst: a holder that keeps its clone's storage reuses it.
func (k *Knowledge) CloneInto(dst *Knowledge) *Knowledge {
	k.shares, k.indexShares = k.shares+1, k.indexShares+1
	*dst = Knowledge{rows: k.rows, index: k.index, shares: 1, indexShares: 1, unsorted: k.unsorted, wireSize: k.wireSize, names: k.names}
	return dst
}

// Release gives back c, a clone of k read no more: what c still shares with
// k, unless c was itself cloned.
func (k *Knowledge) Release(c *Knowledge) {
	if k.shares > 0 && c.shares == 1 && cap(k.rows) > 0 && cap(c.rows) > 0 && &k.rows[:1][0] == &c.rows[:1][0] {
		k.shares--
	}
	if k.indexShares > 0 && c.indexShares == 1 && reflect.ValueOf(k.index).UnsafePointer() == reflect.ValueOf(c.index).UnsafePointer() {
		k.indexShares--
	}
}

// Equal reports whether two knowledge values contain the same version set.
func (k *Knowledge) Equal(other *Knowledge) bool {
	if other == nil || len(k.rows) != len(other.rows) {
		return false
	}
	for _, w := range k.rows {
		i, ok := other.index[w.creator]
		if !ok || other.rows[i].base != w.base || !maps.Equal(other.rows[i].extra, w.extra) {
			return false
		}
	}
	return true
}

// String renders knowledge deterministically, e.g. "{a:3 b:7}+[b:9 b:12]":
// the nonzero bases, then the exceptions, both in creator order.
func (k *Knowledge) String() string {
	var b strings.Builder
	k.sortRows()
	b.WriteByte('{')
	sep := ""
	for _, w := range k.rows {
		if w.base > 0 {
			fmt.Fprintf(&b, "%s%s:%d", sep, w.creator, w.base)
			sep = " "
		}
	}
	b.WriteByte('}')
	sep = "+["
	for _, w := range k.rows {
		for _, s := range w.sortedExtra(nil) {
			b.WriteString(sep)
			b.WriteString(Version{Replica: w.creator, Seq: s}.String())
			sep = " "
		}
	}
	if sep == " " {
		b.WriteByte(']')
	}
	return b.String()
}

// sortedExtra appends w's exceptions to buf[:0] in ascending order.
func (w *row) sortedExtra(buf []uint64) []uint64 {
	buf = buf[:0]
	for s := range w.extra {
		buf = append(buf, s)
	}
	slices.Sort(buf)
	return buf
}

// MarshalBinary implements encoding.BinaryMarshaler (snapshots and WAL
// records carry knowledge this way; see codec.go for the layout).
func (k *Knowledge) MarshalBinary() ([]byte, error) {
	return k.AppendBinary(nil)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Decoded knowledge
// is canonical — one row per creator in ascending order, no empty row,
// exceptions ascending from base+2 — and decode rejects the encodings that
// would break that (see codec.go), because the bytes come from a peer: a
// malformed or adversarial encoding must not produce a Knowledge whose
// Count double-counts versions or whose Equal disagrees with set equality.
// The bytes need not be the encoder's own: an exception list in its longer
// form decodes to the same knowledge.
func (k *Knowledge) UnmarshalBinary(data []byte) error {
	rows, err := decodeRows(data)
	if err != nil {
		return fmt.Errorf("vclock: decode knowledge: %w", err)
	}
	// The decoded rows are freshly built, so any previous sharing ends here.
	*k = Knowledge{rows: rows}
	k.reindex()
	return nil
}
