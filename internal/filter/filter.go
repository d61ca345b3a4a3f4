// Package filter implements the content-based filters of a peer-to-peer
// filtered replication system: query-like predicates over item metadata that
// define which items each replica receives and stores.
//
// For the DTN messaging application a host's filter is an address filter
// selecting the messages addressed to it; multi-hop forwarding via filters
// (§IV.B of the paper) simply adds further addresses to the set. The Covers
// relation supports conservative reasoning about filter containment.
package filter

import (
	"sort"
	"strings"

	"replidtn/internal/item"
)

// Filter is a predicate over item metadata deciding whether an item belongs
// in a replica's store.
type Filter interface {
	// Match reports whether the item is selected by the filter.
	Match(it *item.Item) bool
	// Covers conservatively reports whether this filter selects every item
	// the other filter selects. Implementations must return false when they
	// cannot prove containment.
	Covers(other Filter) bool
	// String renders the filter for logs and wire debugging.
	String() string
}

// All selects every item. A replica with the All filter is a full replica —
// under pure flooding this is the "everyone relays everything" extreme the
// paper notes filters converge to.
type All struct{}

// Match implements Filter.
func (All) Match(*item.Item) bool { return true }

// Covers implements Filter: the all-filter covers anything.
func (All) Covers(Filter) bool { return true }

// String implements Filter.
func (All) String() string { return "all" }

// None selects nothing; useful for pure-relay endpoints and tests.
type None struct{}

// Match implements Filter.
func (None) Match(*item.Item) bool { return false }

// Covers implements Filter: only another None is covered.
func (n None) Covers(other Filter) bool {
	_, ok := other.(None)
	return ok
}

// String implements Filter.
func (None) String() string { return "none" }

// Addresses selects items whose destination list intersects a set of
// addresses. This is the host filter of the DTN messaging application: at
// minimum it contains the host's own address, and it may include further
// addresses to enlist the host as a forwarder for them.
type Addresses struct {
	addrs map[string]struct{}
	// list holds the same addresses in the order they were added: Contains
	// compares against it, instead of hashing, while there are at most
	// fewAddrs, and Each walks it.
	list []string
}

// fewAddrs is the set size up to which Contains — and so Match, per
// destination — compares with each address in turn: one string comparison
// per address is cheaper than one hash while the set is this small (a
// messaging host's own filter holds one address; the two cross near eight),
// and the serve walk matches every candidate it scans.
const fewAddrs = 8

// NewAddresses builds an address filter over the given destination addresses.
func NewAddresses(addrs ...string) *Addresses {
	f := &Addresses{addrs: make(map[string]struct{}, len(addrs))}
	for _, a := range addrs {
		f.Add(a)
	}
	return f
}

// Match implements Filter.
func (f *Addresses) Match(it *item.Item) bool {
	for _, d := range it.Meta.Destinations {
		if f.Contains(d) {
			return true
		}
	}
	return false
}

// Covers implements Filter: an address filter covers another address filter
// whose address set is a subset, and covers None.
func (f *Addresses) Covers(other Filter) bool {
	switch o := other.(type) {
	case None:
		return true
	case *Addresses:
		for _, a := range o.list {
			if !f.Contains(a) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Contains reports whether the filter includes the given address.
func (f *Addresses) Contains(addr string) bool {
	if len(f.addrs) > fewAddrs {
		_, ok := f.addrs[addr]
		return ok
	}
	for _, a := range f.list {
		if a == addr {
			return true
		}
	}
	return false
}

// Each calls fn for every address in the filter, in the order they were
// added.
func (f *Addresses) Each(fn func(string)) {
	for _, a := range f.list {
		fn(a)
	}
}

// Add inserts an address into the filter.
func (f *Addresses) Add(addr string) {
	if f.Contains(addr) {
		return
	}
	if f.addrs == nil {
		f.addrs = make(map[string]struct{})
	}
	f.addrs[addr] = struct{}{}
	f.list = append(f.list, addr)
}

// List returns the addresses in sorted order.
func (f *Addresses) List() []string {
	out := append(make([]string, 0, len(f.list)), f.list...)
	sort.Strings(out)
	return out
}

// Len returns the number of addresses in the filter.
func (f *Addresses) Len() int { return len(f.addrs) }

// String implements Filter.
func (f *Addresses) String() string {
	return "addr(" + strings.Join(f.List(), ",") + ")"
}

// Or selects items matching any member filter.
type Or struct {
	Members []Filter
}

// NewOr builds a union filter.
func NewOr(members ...Filter) *Or { return &Or{Members: members} }

// Match implements Filter.
func (f *Or) Match(it *item.Item) bool {
	for _, m := range f.Members {
		if m.Match(it) {
			return true
		}
	}
	return false
}

// Covers implements Filter: true when some member covers the other filter,
// or when the other is a union each of whose members is covered.
func (f *Or) Covers(other Filter) bool {
	if o, ok := other.(*Or); ok {
		for _, om := range o.Members {
			if !f.Covers(om) {
				return false
			}
		}
		return true
	}
	for _, m := range f.Members {
		if m.Covers(other) {
			return true
		}
	}
	return false
}

// String implements Filter.
func (f *Or) String() string {
	parts := make([]string, len(f.Members))
	for i, m := range f.Members {
		parts[i] = m.String()
	}
	return "or(" + strings.Join(parts, ",") + ")"
}

// Kind selects items of a given application kind.
type Kind struct {
	Name string
}

// Match implements Filter.
func (f Kind) Match(it *item.Item) bool { return it.Meta.Kind == f.Name }

// Covers implements Filter.
func (f Kind) Covers(other Filter) bool {
	if o, ok := other.(Kind); ok {
		return o.Name == f.Name
	}
	_, none := other.(None)
	return none
}

// String implements Filter.
func (f Kind) String() string { return "kind(" + f.Name + ")" }
