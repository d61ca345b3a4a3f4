package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// Knowledge is the set of versions a replica has learned about, represented
// compactly as a base version vector (a contiguous prefix per creator) plus a
// sparse set of exception versions beyond the base. Exceptions are compacted
// into the base automatically as gaps fill in, keeping the structure
// proportional to the number of replicas in steady state.
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
// the whole structure per sync. Shared storage is never mutated in place — a
// mutation first unshares — so a clone remains safe to read concurrently with
// further mutation of its source (and vice versa).
type Knowledge struct {
	base  Vector
	extra map[ReplicaID]map[uint64]struct{}
	// shared marks base/extra as possibly referenced by another Knowledge
	// value; any mutation must unshare first.
	shared bool
	// wireSize memoises WireSize (0: not computed); mutations reset it.
	wireSize int
}

// NewKnowledge returns empty knowledge.
func NewKnowledge() *Knowledge {
	return &Knowledge{
		base:  NewVector(),
		extra: make(map[ReplicaID]map[uint64]struct{}),
	}
}

// Contains reports whether version v has been learned.
//
//dtn:hotpath
func (k *Knowledge) Contains(v Version) bool {
	if v.Seq == 0 {
		return false
	}
	if k.base[v.Replica] >= v.Seq {
		return true
	}
	_, ok := k.extra[v.Replica][v.Seq]
	return ok
}

// CreatorView is one creator's share of a Knowledge, looked up once so that
// a caller walking a run of that creator's versions (store.RangeAbove) pays
// no lookup by replica ID per version. Valid until the knowledge mutates.
type CreatorView struct {
	// Base is the seq up to which every version of the creator is known.
	Base  uint64
	extra map[uint64]struct{}
}

// View returns creator r's share of the knowledge.
//
//dtn:hotpath
func (k *Knowledge) View(r ReplicaID) CreatorView {
	return CreatorView{Base: k.base[r], extra: k.extra[r]}
}

// HasException reports whether seq is known beyond the base.
//
//dtn:hotpath
func (v CreatorView) HasException(seq uint64) bool {
	_, ok := v.extra[seq]
	return ok
}

// unshare gives k exclusive storage before a mutation. Shared maps are
// abandoned to their other referents, never written.
func (k *Knowledge) unshare() {
	if !k.shared {
		return
	}
	base := k.base.Clone()
	extra := make(map[ReplicaID]map[uint64]struct{}, len(k.extra))
	for r, ex := range k.extra {
		m := make(map[uint64]struct{}, len(ex))
		for s := range ex {
			m[s] = struct{}{}
		}
		extra[r] = m
	}
	k.base, k.extra, k.shared = base, extra, false
}

// Add records version v as learned and compacts exceptions that have become
// contiguous with the base. It returns true if v was newly learned.
//
//dtn:hotpath
func (k *Knowledge) Add(v Version) bool {
	if v.Seq == 0 || k.Contains(v) {
		return false
	}
	k.unshare()
	k.wireSize = 0
	if k.base[v.Replica]+1 == v.Seq {
		k.base[v.Replica] = v.Seq
		k.compact(v.Replica)
		return true
	}
	ex := k.extra[v.Replica]
	if ex == nil {
		ex = make(map[uint64]struct{})
		k.extra[v.Replica] = ex
	}
	ex[v.Seq] = struct{}{}
	return true
}

// compact folds exceptions for replica r that are contiguous with the base
// into the base vector.
func (k *Knowledge) compact(r ReplicaID) {
	ex := k.extra[r]
	if ex == nil {
		return
	}
	for {
		next := k.base[r] + 1
		if _, ok := ex[next]; !ok {
			break
		}
		delete(ex, next)
		k.base[r] = next
	}
	if len(ex) == 0 {
		delete(k.extra, r)
	}
}

// Merge folds all versions known to other into k.
//
//dtn:hotpath
func (k *Knowledge) Merge(other *Knowledge) {
	if other == nil {
		return
	}
	k.unshare()
	k.wireSize = 0
	for r, s := range other.base {
		// Everything up to other's base is known; anything in k.extra at or
		// below that base becomes redundant after raising k.base.
		if k.base[r] < s {
			k.base[r] = s
		}
	}
	for r, seqs := range other.extra {
		for s := range seqs {
			if k.base[r] < s {
				ex := k.extra[r]
				if ex == nil {
					ex = make(map[uint64]struct{})
					k.extra[r] = ex
				}
				ex[s] = struct{}{}
			}
		}
	}
	for r, ex := range k.extra {
		for s := range ex {
			if s <= k.base[r] {
				delete(ex, s)
			}
		}
		k.compact(r)
	}
}

// Base returns a copy of the contiguous base vector.
func (k *Knowledge) Base() Vector { return k.base.Clone() }

// ExceptionCount returns the number of versions held outside the base vector.
// It is a direct measure of metadata compactness.
func (k *Knowledge) ExceptionCount() int {
	n := 0
	for _, ex := range k.extra {
		n += len(ex)
	}
	return n
}

// Size returns the total number of tracked entries: one per replica in the
// base plus one per exception.
func (k *Knowledge) Size() int {
	return len(k.base) + k.ExceptionCount()
}

// Count returns the total number of versions the knowledge contains.
func (k *Knowledge) Count() uint64 {
	var n uint64
	for _, s := range k.base {
		n += s
	}
	return n + uint64(k.ExceptionCount())
}

// Clone returns a logically independent copy in O(1): the copy shares
// storage with k until either side next mutates (copy-on-write). Reading the
// clone is safe even while k keeps mutating, because mutation never writes
// shared maps in place.
//
//dtn:hotpath
func (k *Knowledge) Clone() *Knowledge {
	k.shared = true
	return &Knowledge{base: k.base, extra: k.extra, shared: true, wireSize: k.wireSize}
}

// Equal reports whether two knowledge values contain the same version set.
func (k *Knowledge) Equal(other *Knowledge) bool {
	if other == nil {
		return false
	}
	if !k.base.Equal(other.base) {
		return false
	}
	if len(k.extra) != len(other.extra) {
		return false
	}
	for r, ex := range k.extra {
		oex := other.extra[r]
		if len(ex) != len(oex) {
			return false
		}
		for s := range ex {
			if _, ok := oex[s]; !ok {
				return false
			}
		}
	}
	return true
}

// String renders knowledge deterministically, e.g. "{a:3 b:7}+[b:9 b:12]".
func (k *Knowledge) String() string {
	var b strings.Builder
	b.WriteString(k.base.String())
	if k.ExceptionCount() > 0 {
		versions := make([]Version, 0, k.ExceptionCount())
		for r, ex := range k.extra {
			for s := range ex {
				versions = append(versions, Version{Replica: r, Seq: s})
			}
		}
		sort.Slice(versions, func(i, j int) bool {
			if versions[i].Replica != versions[j].Replica {
				return versions[i].Replica < versions[j].Replica
			}
			return versions[i].Seq < versions[j].Seq
		})
		b.WriteString("+[")
		for i, v := range versions {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
		b.WriteByte(']')
	}
	return b.String()
}

// knowledgeDoc is the document form the binary codec (codec.go) encodes.
type knowledgeDoc struct {
	Base  Vector
	Extra map[ReplicaID][]uint64
}

// MarshalBinary implements encoding.BinaryMarshaler via a deterministic
// document form (snapshots and WAL records carry knowledge this way).
func (k *Knowledge) MarshalBinary() ([]byte, error) {
	return k.AppendBinary(nil)
}

// AppendBinary implements encoding.BinaryAppender: it appends the exact
// MarshalBinary encoding to buf and returns the extended slice, so callers
// assembling larger frames (the internal/wire codec) reuse one buffer
// instead of marshaling into a throwaway allocation.
func (k *Knowledge) AppendBinary(buf []byte) ([]byte, error) {
	doc := knowledgeDoc{Base: k.base, Extra: make(map[ReplicaID][]uint64, len(k.extra))}
	for r, ex := range k.extra {
		seqs := make([]uint64, 0, len(ex))
		for s := range ex {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		doc.Extra[r] = seqs
	}
	return appendDoc(buf, doc)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Decoded knowledge
// is canonicalized — zero base entries dropped, exceptions at or below the
// base discarded, contiguous exceptions folded into the base — because the
// bytes come from a peer: a malformed or adversarial encoding must not
// produce a Knowledge whose Count double-counts versions or whose Equal
// disagrees with set equality. Encodings produced by MarshalBinary are
// already canonical, so for honest peers this is a no-op.
func (k *Knowledge) UnmarshalBinary(data []byte) error {
	doc, err := decodeDoc(data)
	if err != nil {
		return fmt.Errorf("vclock: decode knowledge: %w", err)
	}
	k.base = doc.Base
	if k.base == nil {
		k.base = NewVector()
	}
	for r, s := range k.base {
		if s == 0 {
			delete(k.base, r)
		}
	}
	// The decoded maps are freshly built, so any previous sharing ends here.
	k.shared = false
	k.wireSize = 0
	k.extra = make(map[ReplicaID]map[uint64]struct{}, len(doc.Extra))
	for r, seqs := range doc.Extra {
		ex := make(map[uint64]struct{}, len(seqs))
		for _, s := range seqs {
			if s == 0 || s <= k.base[r] {
				continue
			}
			ex[s] = struct{}{}
		}
		if len(ex) > 0 {
			k.extra[r] = ex
		}
	}
	for r := range k.extra {
		k.compact(r)
	}
	return nil
}
