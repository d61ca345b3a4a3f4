// Package vclock provides version identifiers, version vectors, and the
// compact "knowledge" structure used by the replication substrate as a
// vector-based acknowledgement scheme.
//
// Every update in the system is identified by a Version: the Seq-th event
// created by a given replica. A replica's knowledge is the set of versions it
// has learned, stored as one row per creator (a contiguous base plus a
// sparse exception set), so its size is proportional to the number of replicas
// rather than the number of items in steady state.
package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// ReplicaID uniquely identifies a replica (a node hosting a replica of the
// collection).
type ReplicaID string

// Version identifies a single update event: the Seq-th event created by
// Replica. Sequence numbers start at 1; the zero Version is invalid and is
// used as a sentinel.
type Version struct {
	Replica ReplicaID
	Seq     uint64
}

// IsZero reports whether v is the invalid sentinel version.
func (v Version) IsZero() bool { return v.Replica == "" && v.Seq == 0 }

// String renders the version as "replica:seq".
func (v Version) String() string { return fmt.Sprintf("%s:%d", v.Replica, v.Seq) }

// Compare orders two versions created by the same replica. It returns -1, 0,
// or +1 when v is older than, equal to, or newer than other. Versions created
// by different replicas are concurrent; Compare breaks the tie
// deterministically by replica ID so that all replicas resolve conflicting
// updates to the same winner.
func (v Version) Compare(other Version) int {
	if v.Replica == other.Replica {
		switch {
		case v.Seq < other.Seq:
			return -1
		case v.Seq > other.Seq:
			return 1
		default:
			return 0
		}
	}
	// Concurrent: deterministic last-writer-wins tiebreak, higher Seq first,
	// then replica ID.
	switch {
	case v.Seq < other.Seq:
		return -1
	case v.Seq > other.Seq:
		return 1
	case v.Replica < other.Replica:
		return -1
	default:
		return 1
	}
}

// Vector is a classic version vector: for each replica, the highest
// contiguous sequence number known. A Vector v "includes" version (r, s) when
// v[r] >= s.
type Vector map[ReplicaID]uint64

// NewVector returns an empty vector.
func NewVector() Vector { return make(Vector) }

// Get returns the highest contiguous sequence known for replica r (0 when
// none).
func (vec Vector) Get(r ReplicaID) uint64 { return vec[r] }

// Set records that all of replica r's versions up to and including seq are
// known. Lowering an existing entry is ignored: vectors are monotone.
func (vec Vector) Set(r ReplicaID, seq uint64) {
	if vec[r] < seq {
		vec[r] = seq
	}
}

// Includes reports whether the vector covers version v.
func (vec Vector) Includes(v Version) bool { return v.Seq != 0 && vec[v.Replica] >= v.Seq }

// Merge folds other into vec, taking the element-wise maximum.
func (vec Vector) Merge(other Vector) {
	for r, s := range other {
		vec.Set(r, s)
	}
}

// Clone returns a deep copy of the vector.
func (vec Vector) Clone() Vector {
	out := make(Vector, len(vec))
	for r, s := range vec {
		out[r] = s
	}
	return out
}

// Equal reports whether two vectors contain identical entries (zero entries
// are ignored).
func (vec Vector) Equal(other Vector) bool {
	for r, s := range vec {
		if s != 0 && other[r] != s {
			return false
		}
	}
	for r, s := range other {
		if s != 0 && vec[r] != s {
			return false
		}
	}
	return true
}

// Dominates reports whether vec includes every version that other includes.
func (vec Vector) Dominates(other Vector) bool {
	for r, s := range other {
		if vec[r] < s {
			return false
		}
	}
	return true
}

// String renders the vector deterministically, e.g. "{a:3 b:7}".
func (vec Vector) String() string {
	ids := make([]string, 0, len(vec))
	for r := range vec {
		ids = append(ids, string(r))
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", id, vec[ReplicaID(id)])
	}
	b.WriteByte('}')
	return b.String()
}
