// Package store implements a replica's local item store: the latest version
// of every logical item the replica holds, including tombstones for deleted
// items, together with per-copy transient routing metadata.
//
// Entries divide into two partitions. In-filter entries match the replica's
// own filter (for the messaging application: messages addressed to it).
// Relay entries do not match the filter and are held only to be forwarded on
// behalf of others — the generalization of the Cimbiosys push-out store that
// the paper's DTN extension relies on. Storage limits and FIFO eviction apply
// exclusively to relay entries, matching the paper's storage-constrained
// experiments, which exempt messages for which the node is the sender or a
// destination.
//
// The store keeps incremental indexes so its read paths are cheap on the
// synchronization hot path: an ordered B-tree over entries by item ID
// (iteration in ID order without per-call allocation or sorting), one
// version run per creator — a B-tree over that creator's versions, so
// RangeAbove skips a run the target knows in O(1) and seeks into any other —
// live/relay counters (LiveLen and RelayLen are O(1)), and — for
// arrival-ordered eviction strategies — a lazy min-heap over relay entries so
// enforcing the relay capacity never rescans the store.
// Entries only a filter-matching target can receive (DestinationOnly) are
// filed under each of their destinations instead, in runs of the same shape.
package store

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"replidtn/internal/item"
	"replidtn/internal/vclock"
)

// Entry is one stored copy of an item plus its host-local state.
type Entry struct {
	// Item is the latest known version of the logical item.
	Item *item.Item
	// Transient is host-specific routing metadata for this copy, held by
	// value; it never replicates and mutating it never changes the item's
	// version.
	Transient item.Transient
	// Relay marks entries held only for forwarding (they do not match the
	// replica's filter). Relay entries are subject to capacity eviction.
	Relay bool
	// Local marks entries created by this replica. Local entries are never
	// relay entries: a sender keeps its own messages regardless of filter
	// and storage pressure, matching the paper's storage-constraint rule.
	Local bool
	// arrival is the store-local arrival sequence used for FIFO eviction.
	arrival uint64
	// byDest and inMain mark where the entry is filed; it may be both.
	byDest, inMain bool
}

// Arrival returns the entry's arrival order within the store (earlier is
// smaller).
func (e *Entry) Arrival() uint64 { return e.arrival }

// UnderDestinations reports whether the entry is filed under its destinations.
func (e *Entry) UnderDestinations() bool { return e.byDest }

// relayLive reports whether the entry counts toward the relay capacity.
func (e *Entry) relayLive() bool { return e.Relay && !e.Item.Deleted }

// EvictionStrategy orders relay entries for eviction when the store exceeds
// its relay capacity. Less reports whether a should be evicted before b.
type EvictionStrategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Less reports whether entry a should be evicted before entry b.
	Less(a, b *Entry) bool
}

// ArrivalOrdered marks eviction strategies whose order depends only on the
// entry's immutable arrival sequence. For such strategies the store maintains
// an incremental eviction heap; strategies whose order reads mutable state
// (e.g. transient cost fields a routing policy rewrites in place) cannot be
// indexed and fall back to scanning the relay partition when — and only
// when — an eviction is actually due.
type ArrivalOrdered interface {
	ArrivalOrdered() bool
}

// FIFO evicts the oldest relay entry first — the strategy the paper's
// storage-constrained experiments use.
type FIFO struct{}

// Name implements EvictionStrategy.
func (FIFO) Name() string { return "fifo" }

// Less implements EvictionStrategy.
func (FIFO) Less(a, b *Entry) bool { return a.arrival < b.arrival }

// ArrivalOrdered implements ArrivalOrdered: FIFO order is fixed at insert.
func (FIFO) ArrivalOrdered() bool { return true }

// EvictByCost evicts the relay entry with the highest transient cost field
// first (ties broken FIFO). MaxProp's buffer management uses this shape:
// messages least likely to be delivered (highest path cost) are dropped
// first.
type EvictByCost struct {
	// Field is the transient field holding the cost (higher = evict first).
	Field item.Field
}

// Name implements EvictionStrategy.
func (e EvictByCost) Name() string { return "cost(" + e.Field.String() + ")" }

// Less implements EvictionStrategy.
func (e EvictByCost) Less(a, b *Entry) bool {
	ca, okA := a.Transient.Get(e.Field)
	cb, okB := b.Transient.Get(e.Field)
	switch {
	case okA && okB && ca != cb:
		return ca > cb
	case okA != okB:
		// Entries without a cost stay longest: nothing is known against them.
		return okA
	default:
		return a.arrival < b.arrival
	}
}

// Store holds a replica's entries. The zero value is not usable; call New.
// Store is not safe for concurrent use; the owning replica serializes access.
type Store struct {
	entries map[item.ID]*Entry
	// index (by item ID), the main version runs and each destination's
	// (sorted by address, found through destOf) are kept on every mutation.
	index    entryIndex
	main     runSet
	destSets []*runSet
	destOf   map[string]*runSet
	destOnly func(*Entry) bool
	destToo  bool // FileUnderDestinations, beside the main runs
	// relayCapacity bounds the number of live (non-tombstone) relay entries;
	// <= 0 means unlimited.
	relayCapacity int
	eviction      EvictionStrategy
	nextArrival   uint64

	// liveCount counts non-tombstone entries; relayCount counts live relay
	// entries (the population the capacity bound applies to). Both are
	// maintained on every mutation so LiveLen/RelayLen are O(1).
	liveCount  int
	relayCount int
	// evicted counts the relay entries evictOverflow has dropped.
	evicted int

	// evictHeap is a min-heap over relay-live entries keyed by the eviction
	// strategy's (arrival-only) order, with lazy invalidation: superseded or
	// reclassified entries stay in the heap and are skipped on pop. Nil when
	// the strategy is not ArrivalOrdered or the capacity is unlimited.
	evictHeap []*Entry
	useHeap   bool

	// onLive observes live-copy transitions (see LiveNotify).
	onLive func(item.ID, int)

	// onJournal observes every incremental mutation (see Journal).
	onJournal func(JournalOp)
}

// JournalOp is one incremental store mutation as observed by a Journal hook:
// exactly one of Put and Remove is set.
type JournalOp struct {
	// Put, when non-nil, is a deep snapshot of the entry that just became
	// current (insert or replacement), safe to retain and serialize.
	Put *EntrySnapshot
	// Remove, when Put is nil, identifies the entry that just left the store
	// (explicit removal or capacity eviction).
	Remove item.ID
	// NextArrival is the store's arrival counter after the mutation; a
	// journal replay must restore it so FIFO eviction order survives.
	NextArrival uint64
}

// Journal registers fn to observe every incremental mutation: one Put op per
// entry that becomes current and one Remove op per entry that leaves the
// store (including capacity evictions), in occurrence order. Replaying the
// ops against an empty store rebuilds its exact contents — the hook the
// write-ahead-log persistence backend rides on. Restore is wholesale
// replacement, not an incremental mutation, and is not journaled; like
// LiveNotify, register before the store sees traffic. A nil fn unregisters.
func (s *Store) Journal(fn func(JournalOp)) { s.onJournal = fn }

// LiveNotify registers fn to observe live-copy transitions: fn(id, +1) runs
// when a live (non-tombstone) entry for id becomes current, fn(id, -1) when
// the current live entry for id is replaced, removed, or evicted. Replacing a
// live entry with a newer live version fires -1 then +1 (net zero). The sum
// of deltas for an id therefore tracks whether this store holds a live copy
// of it — the per-item copy accounting the emulator aggregates across nodes.
// Restore rebuilds the store wholesale and does not notify; register before
// the store sees traffic.
func (s *Store) LiveNotify(fn func(item.ID, int)) { s.onLive = fn }

// DestinationOnly registers fn to select the live entries only a target whose
// filter matches them can receive, filed under their destinations. Once fn
// accepts an entry it must go on accepting it. Register before any traffic.
func (s *Store) DestinationOnly(fn func(*Entry) bool) { s.destOnly = fn }

// FileUnderDestinations files every live entry that has destinations under
// each of them, those held now and those to come: alone, out of the main
// runs (whatever the DestinationOnly predicate says), or beside them. The
// main runs keep their order. Call it once.
func (s *Store) FileUnderDestinations(alone bool) {
	if s.destToo = !alone; alone {
		s.destOnly = func(*Entry) bool { return true }
	}
	main := s.main.runs
	if alone { // what stays is filed again
		s.main = runSet{runOf: make(map[vclock.ReplicaID]*versionRun)}
	}
	file := func(rs *runSet, e *Entry) bool { return (alone || rs != &s.main) && rs.file(e) }
	for _, r := range main {
		r.disorder = 0
		r.entries.ascend(func(e *Entry) bool {
			e.byDest = hasDests(e)
			e.inMain = !alone || !e.byDest
			s.eachSet(e, file)
			r.disorder += disorders(e)
			return true
		})
	}
}

// New creates an empty store. relayCapacity bounds the number of live relay
// entries (<= 0 for unlimited); when the bound is exceeded the oldest relay
// entry is evicted first (FIFO). Use NewWithEviction for other strategies.
func New(relayCapacity int) *Store {
	return NewWithEviction(relayCapacity, FIFO{})
}

// NewWithEviction creates an empty store with an explicit eviction strategy.
func NewWithEviction(relayCapacity int, eviction EvictionStrategy) *Store {
	if eviction == nil {
		eviction = FIFO{}
	}
	ao, ok := eviction.(ArrivalOrdered)
	return &Store{
		entries:       make(map[item.ID]*Entry),
		index:         entryIndex{order: orderByID},
		main:          runSet{runOf: make(map[vclock.ReplicaID]*versionRun)},
		destOf:        make(map[string]*runSet),
		relayCapacity: relayCapacity,
		eviction:      eviction,
		useHeap:       relayCapacity > 0 && ok && ao.ArrivalOrdered(),
	}
}

// RelayCapacity returns the configured relay bound (<= 0 means unlimited).
func (s *Store) RelayCapacity() int { return s.relayCapacity }

// Get returns the entry for the given item ID, or nil.
func (s *Store) Get(id item.ID) *Entry { return s.entries[id] }

// Len returns the total number of entries, including tombstones.
func (s *Store) Len() int { return len(s.entries) }

// LiveLen returns the number of non-tombstone entries in O(1).
func (s *Store) LiveLen() int { return s.liveCount }

// RelayLen returns the number of live relay entries (the population the
// capacity bound applies to) in O(1).
func (s *Store) RelayLen() int { return s.relayCount }

// TombstoneLen returns the number of tombstone entries in O(1).
func (s *Store) TombstoneLen() int { return len(s.entries) - s.liveCount }

// Evicted returns how many relay entries storage pressure has evicted.
func (s *Store) Evicted() int { return s.evicted }

// Put inserts or replaces the entry for it.ID and returns the entries evicted
// to respect the relay capacity (possibly including the one just inserted,
// though FIFO order makes that unlikely in practice). The item is stored as
// given; callers pass clones when they need isolation. The transient, when
// not nil, is copied into the entry. Local entries are never treated as relay
// entries.
func (s *Store) Put(it *item.Item, transient *item.Transient, relay, local bool) []*Entry {
	prev := s.entries[it.ID]
	if local {
		relay = false
	}
	e := &Entry{Item: it, Relay: relay, Local: local}
	if transient != nil {
		e.Transient = *transient
	}
	if prev != nil {
		// Replacing a known item keeps its arrival slot: an updated relay
		// entry does not move to the back of the FIFO queue.
		e.arrival = prev.arrival
		s.uncount(prev)
		s.unfile(prev)
	} else {
		s.nextArrival++
		e.arrival = s.nextArrival
	}
	s.entries[it.ID] = e
	s.index.replaceOrInsert(e)
	s.file(e)
	s.count(e)
	if s.onJournal != nil {
		snap := snapshotEntry(e)
		s.onJournal(JournalOp{Put: &snap, NextArrival: s.nextArrival})
	}
	return s.evictOverflow()
}

// Remove deletes the entry outright (used when applying tombstones where no
// forwarding obligation remains). It returns the removed entry, or nil.
func (s *Store) Remove(id item.ID) *Entry {
	e := s.entries[id]
	if e != nil {
		s.drop(e)
	}
	return e
}

// hasDests reports whether e may be filed under its destinations: a live
// entry that has some; never a tombstone, which always travels.
func hasDests(e *Entry) bool { return !e.Item.Deleted && len(e.Item.Meta.Destinations) > 0 }

// filesByDest reports whether e belongs under its destinations alone.
func (s *Store) filesByDest(e *Entry) bool { return s.destOnly != nil && hasDests(e) && s.destOnly(e) }

// file adds e to its creator's run in the main set, in the set of each of
// its destinations, or in both.
func (s *Store) file(e *Entry) {
	only := s.filesByDest(e)
	e.byDest, e.inMain = only || s.destToo && hasDests(e), !only
	s.eachSet(e, (*runSet).file)
}

// unfile takes e out of the sets file put it in.
func (s *Store) unfile(e *Entry) { s.eachSet(e, (*runSet).unfile) }

// eachSet applies op to e in the main set and in each of its destinations'
// sets, as filed, opening a missing set and dropping one op reports empty.
func (s *Store) eachSet(e *Entry, op func(*runSet, *Entry) (empty bool)) {
	if e.inMain {
		op(&s.main, e)
	}
	for i, d := range e.Item.Meta.Destinations {
		if !e.byDest || slices.Contains(e.Item.Meta.Destinations[:i], d) {
			continue
		}
		rs := s.destOf[d]
		if rs == nil {
			rs = &runSet{runOf: make(map[vclock.ReplicaID]*versionRun), to: d}
			s.destSets = slices.Insert(s.destSets, s.destSet(d), rs)
			s.destOf[d] = rs
		}
		if op(rs, e) {
			j := s.destSet(d)
			s.destSets = slices.Delete(s.destSets, j, j+1)
			delete(s.destOf, d)
		}
	}
}

// destSet finds destination to's place in destSets.
func (s *Store) destSet(to string) int {
	i, _ := slices.BinarySearchFunc(s.destSets, to, func(rs *runSet, to string) int { return strings.Compare(rs.to, to) })
	return i
}

// drop takes a current entry out of the map, both indexes and the counters,
// and journals its removal.
func (s *Store) drop(e *Entry) {
	delete(s.entries, e.Item.ID)
	s.index.delete(e)
	s.unfile(e)
	s.uncount(e)
	if s.onJournal != nil {
		s.onJournal(JournalOp{Remove: e.Item.ID, NextArrival: s.nextArrival})
	}
}

// count folds a newly current entry into the maintained counters and, when
// relay-live, the eviction heap.
func (s *Store) count(e *Entry) {
	if !e.Item.Deleted {
		s.liveCount++
		if s.onLive != nil {
			s.onLive(e.Item.ID, 1)
		}
	}
	if e.relayLive() {
		s.relayCount++
		if s.useHeap {
			s.heapPush(e)
		}
	}
}

// uncount removes a no-longer-current entry from the counters. A stale heap
// element is left behind and skipped lazily on pop.
func (s *Store) uncount(e *Entry) {
	if !e.Item.Deleted {
		s.liveCount--
		if s.onLive != nil {
			s.onLive(e.Item.ID, -1)
		}
	}
	if e.relayLive() {
		s.relayCount--
	}
}

// evictOverflow enforces the relay capacity. The counter makes the common
// under-capacity case O(1); when evictions are due, arrival-ordered
// strategies pop the maintained heap and others scan the relay partition.
func (s *Store) evictOverflow() []*Entry {
	if s.relayCapacity <= 0 {
		return nil
	}
	over := s.relayCount - s.relayCapacity
	if over <= 0 {
		return nil
	}
	s.evicted += over
	evicted := make([]*Entry, 0, over)
	if s.useHeap {
		for len(evicted) < over {
			e := s.heapPop()
			s.drop(e)
			evicted = append(evicted, e)
		}
		return evicted
	}
	relays := make([]*Entry, 0, s.relayCount)
	for _, e := range s.entries {
		if e.relayLive() {
			relays = append(relays, e)
		}
	}
	sort.Slice(relays, func(i, j int) bool { return s.eviction.Less(relays[i], relays[j]) })
	for _, e := range relays[:over] {
		s.drop(e)
		evicted = append(evicted, e)
	}
	return evicted
}

// heapPush adds a relay-live entry to the eviction heap, pruning accumulated
// stale elements when they dominate the heap.
func (s *Store) heapPush(e *Entry) {
	if len(s.evictHeap) > 4*s.relayCount+16 {
		s.heapRebuild()
	}
	s.evictHeap = append(s.evictHeap, e)
	i := len(s.evictHeap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.eviction.Less(s.evictHeap[i], s.evictHeap[parent]) {
			break
		}
		s.evictHeap[i], s.evictHeap[parent] = s.evictHeap[parent], s.evictHeap[i]
		i = parent
	}
}

// heapPop removes and returns the first-to-evict valid relay entry, skipping
// lazily invalidated elements (replaced, removed, or reclassified entries).
// The caller guarantees at least one valid element exists (relayCount > 0).
func (s *Store) heapPop() *Entry {
	for {
		e := s.evictHeap[0]
		last := len(s.evictHeap) - 1
		s.evictHeap[0] = s.evictHeap[last]
		s.evictHeap[last] = nil
		s.evictHeap = s.evictHeap[:last]
		if last > 0 {
			s.heapSiftDown(0)
		}
		// Valid iff still the current entry for its ID and still relay-live:
		// Put always allocates a fresh Entry, so pointer identity suffices.
		if s.entries[e.Item.ID] == e && e.relayLive() {
			return e
		}
	}
}

func (s *Store) heapSiftDown(i int) {
	n := len(s.evictHeap)
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && s.eviction.Less(s.evictHeap[left], s.evictHeap[least]) {
			least = left
		}
		if right < n && s.eviction.Less(s.evictHeap[right], s.evictHeap[least]) {
			least = right
		}
		if least == i {
			return
		}
		s.evictHeap[i], s.evictHeap[least] = s.evictHeap[least], s.evictHeap[i]
		i = least
	}
}

// heapRebuild drops stale elements and re-heapifies.
func (s *Store) heapRebuild() {
	valid := s.evictHeap[:0]
	for _, e := range s.evictHeap {
		if s.entries[e.Item.ID] == e && e.relayLive() {
			valid = append(valid, e)
		}
	}
	for i := len(valid); i < len(s.evictHeap); i++ {
		s.evictHeap[i] = nil
	}
	s.evictHeap = valid
	for i := len(valid)/2 - 1; i >= 0; i-- {
		s.heapSiftDown(i)
	}
}

// rebuildIndexes reconstructs every maintained index from the entries map;
// used after wholesale replacement (Restore). Wholesale replacement is not
// an incremental live-copy transition, so the LiveNotify observer is
// suppressed for its duration.
func (s *Store) rebuildIndexes() {
	notify := s.onLive
	s.onLive = nil
	defer func() { s.onLive = notify }()
	s.index.reset()
	s.main, s.destSets, s.destOf = runSet{runOf: make(map[vclock.ReplicaID]*versionRun)}, nil, make(map[string]*runSet)
	s.liveCount, s.relayCount = 0, 0
	s.evictHeap = s.evictHeap[:0]
	all := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		all = append(all, e)
	}
	// Filed in arrival order (unique, see Restore), so the rebuilt run list
	// and eviction heap do not depend on map order.
	slices.SortFunc(all, func(a, b *Entry) int { return cmp.Compare(a.arrival, b.arrival) })
	for _, e := range all {
		s.index.replaceOrInsert(e)
		s.file(e)
		s.count(e)
	}
}

// Entries returns all entries in deterministic (item ID) order. The slice is
// freshly allocated; entries are shared. Prefer Range on read-only paths —
// Entries exists for callers that mutate the store while iterating.
func (s *Store) Entries() []*Entry {
	out := make([]*Entry, 0, len(s.entries))
	s.index.ascend(func(e *Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Range calls fn for every entry in deterministic (item ID) order until fn
// returns false. It walks the maintained index directly — no allocation, no
// per-call sort. fn must not insert into or remove from the store; use
// Entries for a snapshot when the loop body mutates membership.
func (s *Store) Range(fn func(*Entry) bool) {
	s.index.ascend(fn)
}

// RangeAbove calls fn for exactly the entries of the main runs — every
// entry not filed under its destinations alone — whose version the vector
// floor does not cover: Version.Seq == 0 or Version.Seq >
// floor(Version.Replica). It goes run by run, each run one creator's entries
// by ascending seq with seq 0 last; fn returning false ends the run, and the
// walk goes on with the next. The order of the runs is unspecified (it
// follows the store's history). A run floor covers entirely costs one
// comparison, any other one descent, so the cost follows the entries yielded
// and the number of creators, not the store's size. Like Range it allocates
// nothing and fn must not change the store's membership. It returns how many
// entries it visited, the calls of fn; the descents that find each run's
// first are not counted.
//
// floor is asked once per run, just before fn sees it, with the run's
// creator and whether the run is ordered, its item IDs rising with seq (see
// disorders). A caller may load per-creator state in floor for fn to use; a
// floor of math.MaxUint64 passes over an ordered run (no seq 0) whole.
func (s *Store) RangeAbove(floor func(vclock.ReplicaID, bool) uint64, fn func(*Entry) bool) (examined int) {
	s.main.rangeAbove(floor, fn, &examined)
	return examined
}

// Refile moves e under its destinations alone once the predicate accepts it.
func (s *Store) Refile(e *Entry) {
	if e.inMain && s.filesByDest(e) && s.entries[e.Item.ID] == e {
		s.unfile(e)
		s.file(e)
	}
}

// RangeAboveTo is RangeAbove over the runs filed under destination to.
func (s *Store) RangeAboveTo(to string, floor func(vclock.ReplicaID, bool) uint64, fn func(*Entry) bool) (examined int) {
	if rs := s.destOf[to]; rs != nil {
		rs.rangeAbove(floor, fn, &examined)
	}
	return examined
}

// RangeAboveDestinations is RangeAbove over every destination's runs, in
// address order, yielding each entry filed there alone under its first one.
func (s *Store) RangeAboveDestinations(floor func(vclock.ReplicaID, bool) uint64, fn func(*Entry) bool) (examined int) {
	for _, rs := range s.destSets {
		rs.rangeAbove(floor, func(e *Entry) bool { return e.inMain || e.Item.Meta.Destinations[0] != rs.to || fn(e) }, &examined)
	}
	return examined
}
