// Package vclock provides version identifiers and the compact "knowledge"
// structure used by the replication substrate as a
// vector-based acknowledgement scheme.
//
// Every update in the system is identified by a Version: the Seq-th event
// created by a given replica. A replica's knowledge is the set of versions it
// has learned, stored as one row per creator (a contiguous base plus a
// sparse exception set), so its size is proportional to the number of replicas
// rather than the number of items in steady state.
package vclock

import "fmt"

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
