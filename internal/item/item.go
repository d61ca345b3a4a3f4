// Package item defines the replicated data items managed by the substrate.
//
// An item carries immutable replicated metadata (source address, destination
// addresses, timestamps) plus an opaque payload. Each stored copy of an item
// may additionally carry host-specific transient metadata — routing fields
// such as a TTL or a remaining-copies count — that is never replicated and
// whose mutation never creates a new version. This separation is what allows
// DTN routing policies to adjust per-copy state (e.g. halving spray copies)
// without the adjusted item appearing as an update that must be re-sent.
//
// One rule makes items cheap to move: a stored *Item is never written after
// it is stored. Everything reachable from it — Prior, the destination list,
// Attrs, the payload bytes — is fixed from the moment a replica's store takes
// it; an update or a delete clones it into a new version first. So a sync
// batch may carry the very pointer the source has stored, the target may
// store that pointer too, and replicas in one process share one Item per
// version; whoever hands bytes to a replica from outside (an application's
// send buffer) copies them at that boundary. Transient is the opposite: a
// small value (three integer fields and a presence mask) held inside each
// stored copy and copied into each batch item, so no two copies ever share
// one and nothing allocates to pass it along.
package item

import (
	"fmt"

	"replidtn/internal/vclock"
)

// ID uniquely identifies an item across the whole system: the Num-th item
// created by replica Creator. IDs never change across updates to the item.
type ID struct {
	Creator vclock.ReplicaID
	Num     uint64
}

// String renders the ID as "creator/num".
func (id ID) String() string { return fmt.Sprintf("%s/%d", id.Creator, id.Num) }

// Compare orders IDs by creator bytes, then number: the one item-ID order
// (the store's iteration order, batch tie-breaks, and the WAL's segment
// runs, whose merge compares the encoded creators bytewise). It tests the
// creators for equality first and stays small enough to inline, as sorts
// compare mostly one creator's items.
func (id ID) Compare(o ID) int {
	switch {
	case id.Creator != o.Creator:
		if id.Creator < o.Creator {
			return -1
		}
		return 1
	case id.Num < o.Num:
		return -1
	case id.Num > o.Num:
		return 1
	}
	return 0
}

// IsZero reports whether the ID is the invalid sentinel.
func (id ID) IsZero() bool { return id.Creator == "" && id.Num == 0 }

// Metadata is the replicated, content-addressable part of an item. Filters
// evaluate over metadata; it never changes once the item is created (updates
// replace payload or set the tombstone, keeping metadata intact so filters
// keep matching).
type Metadata struct {
	// Source is the address of the originating endpoint (e.g. "user:17").
	Source string
	// Destinations are the addresses the item is directed to. For the
	// messaging application this is the recipient list.
	Destinations []string
	// Kind is an application-defined type tag (e.g. "message").
	Kind string
	// Created is the creation time in seconds since the start of the
	// simulation (or Unix seconds in live deployments).
	Created int64
	// Expires, when non-zero, is the time after which the item is dead:
	// it is no longer transmitted, delivered, or worth relaying. Expiry
	// models bounded message lifetimes in DTN workloads.
	Expires int64
	// Attrs carries optional application attributes visible to filters.
	Attrs map[string]string
}

// Expired reports whether the metadata's lifetime has passed at time now.
func (m *Metadata) Expired(now int64) bool {
	return m.Expires > 0 && now >= m.Expires
}

// HasDestination reports whether addr is one of the item's destinations.
func (m *Metadata) HasDestination(addr string) bool {
	for _, d := range m.Destinations {
		if d == addr {
			return true
		}
	}
	return false
}

// cloneMetadata deep-copies metadata.
func cloneMetadata(m Metadata) Metadata {
	out := m
	if m.Destinations != nil {
		out.Destinations = append([]string(nil), m.Destinations...)
	}
	if m.Attrs != nil {
		out.Attrs = make(map[string]string, len(m.Attrs))
		for k, v := range m.Attrs {
			out.Attrs[k] = v
		}
	}
	return out
}

// Item is one replicated data item: a version of the logical item identified
// by ID. Prior lists the versions this one supersedes, so a receiver can mark
// obsolete versions as known and never accept them later. Once stored it is
// immutable and may be shared (see the package comment); Clone before writing.
type Item struct {
	ID      ID
	Version vclock.Version
	// Prior holds every earlier version of this item known at update time.
	// It is small in practice: messaging items are updated at most once (a
	// delete by the recipient).
	Prior   []vclock.Version
	Deleted bool
	Meta    Metadata
	Payload []byte
}

// Clone deep-copies the item.
func (it *Item) Clone() *Item {
	out := *it
	out.Meta = cloneMetadata(it.Meta)
	if it.Prior != nil {
		out.Prior = append([]vclock.Version(nil), it.Prior...)
	}
	if it.Payload != nil {
		out.Payload = append([]byte(nil), it.Payload...)
	}
	return &out
}

// Supersedes reports whether this version replaces other (same logical item,
// strictly newer version under the deterministic version order).
func (it *Item) Supersedes(other *Item) bool {
	return it.ID == other.ID && it.Version.Compare(other.Version) > 0
}

// AllVersions returns the item's version plus every superseded version it
// records, for folding into a receiver's knowledge.
func (it *Item) AllVersions() []vclock.Version {
	out := make([]vclock.Version, 0, len(it.Prior)+1)
	out = append(out, it.Version)
	out = append(out, it.Prior...)
	return out
}
