// Package replica implements the peer-to-peer filtered replication (PFR)
// substrate: a Cimbiosys-like replica holding a filtered subset of a data
// collection, synchronizing pairwise with other replicas, and guaranteeing
// eventual filter consistency together with at-most-once delivery via
// exchanged knowledge.
//
// The sync protocol follows the paper's Fig. 4. The target sends its
// knowledge, filter and policy routing state; the source returns a
// priority-ordered batch of versions unknown to the target that either match
// the target's filter or are selected by the source's pluggable DTN routing
// policy. Applying the batch folds every carried version into the target's
// knowledge, which is what makes duplicate transmission impossible by
// construction.
package replica

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// Config configures a replica.
type Config struct {
	// ID is the unique replica identifier.
	ID vclock.ReplicaID
	// OwnAddresses are the endpoint addresses considered local for
	// application delivery (e.g. the users currently hosted by this node).
	OwnAddresses []string
	// Filter selects the items this replica stores in-filter. When nil, an
	// address filter over OwnAddresses is used.
	Filter filter.Filter
	// RelayCapacity bounds relayed (out-of-filter) live items; <= 0 means
	// unlimited. Matches the paper's storage-constrained configuration.
	RelayCapacity int
	// Eviction orders relay entries for eviction under storage pressure;
	// nil selects FIFO (the paper's strategy).
	Eviction store.EvictionStrategy
	// Policy is the optional DTN routing policy. Nil means basic filtered
	// replication: no out-of-filter forwarding.
	Policy routing.Policy
	// OnDeliver, when set, is invoked (with the replica lock held) each time
	// an item addressed to one of OwnAddresses is first stored locally, and
	// again if an address added later by SetIdentity matches a stored item.
	OnDeliver func(*item.Item)
	// OnCopies, when set, observes live-copy transitions in the local store:
	// it is invoked (with the replica lock held) as OnCopies(id, +1) when a
	// live copy of an item appears locally and OnCopies(id, -1) when one
	// disappears (tombstone, eviction, expiry purge). Summing the deltas per
	// item across replicas yields the network-wide stored-copy count without
	// ever scanning a store. Snapshot restore does not notify.
	OnCopies func(item.ID, int)
	// Now supplies the current time in seconds for message-lifetime checks;
	// nil disables expiry (items never expire).
	Now func() int64
	// MergeKnowledge enables the Cimbiosys knowledge-merge optimization:
	// when a sync source proves its filter covers ours, adopt its whole
	// knowledge, keeping ours a compact vector. Leave it off for replicas
	// whose filters change over time (e.g. via SetIdentity): a wholesale
	// merge can claim versions the replica never stored, which a later,
	// wider filter would then silently miss.
	MergeKnowledge bool
	// SyncSummaries enables the compact knowledge summary mode for syncs
	// this replica initiates: delta knowledge against the frontier last sent
	// to a recurring peer, a tagged exact frame on first contact, and an
	// exact-knowledge fallback round whenever the source refuses a delta.
	// Delivery results are identical to full-knowledge syncs by
	// construction; only the knowledge-frame bytes change.
	SyncSummaries bool
}

// defaultSummaryPeerCap bounds the per-peer summary caches: delta frontiers
// on the target side and knowledge baselines on the source side. Peer IDs
// arrive self-declared over the transport, so unbounded maps would let a
// hostile dialer pin a knowledge clone per invented identity; past the cap
// the least-recently-used pair is evicted, which only costs that pair one
// full-frame or fallback round. 1024 is generous next to any real contact
// graph (PR 6's fleets average far fewer recurring peers per node) while
// keeping the worst-case pinned state a few thousand knowledge clones.
const defaultSummaryPeerCap = 1024

// Stats is a replica's one cumulative ledger: every counter has one
// increment site, under the replica lock, and the occupancy fields are read
// from the store and the knowledge when Stats is called. Its JSON encoding is
// the replica section of a node's /metrics document (README.md); StoreStats
// gives the store section. Every field is a count, so ledgers add up (Add).
type Stats struct {
	// SyncsInitiated counts syncs where this replica was the target.
	SyncsInitiated int `json:"syncs_initiated"`
	// SyncsServed counts syncs where this replica was the source.
	SyncsServed int `json:"syncs_served"`
	// SyncsAborted counts syncs this replica initiated whose transfer died
	// mid-batch; the partial batch was discarded without applying anything.
	SyncsAborted int `json:"syncs_aborted"`
	// ItemsSent counts batch items transmitted as source.
	ItemsSent int `json:"items_sent"`
	// ItemsReceived counts batch items accepted as target: every version it
	// did not know, whatever became of the item.
	ItemsReceived int `json:"-"`
	// BatchesApplied counts applied batches, BatchItems their sizes, and
	// ItemsApplied the items they stored: Stored, Relayed and Tombstones.
	BatchesApplied int       `json:"batches_applied"`
	BatchItems     obs.Tally `json:"batch_items"`
	ItemsApplied   int       `json:"items_applied"`
	Stored         int       `json:"stored"`
	Relayed        int       `json:"relayed"`
	Tombstones     int       `json:"tombstones"`
	// Duplicates counts received items whose version was already known; the
	// substrate guarantees this stays zero.
	Duplicates int `json:"duplicates"`
	// Superseded counts received versions older than the stored one, and
	// Expired received items already past their lifetime.
	Superseded int `json:"superseded"`
	Expired    int `json:"expired"`
	// Delivered counts application deliveries.
	Delivered int `json:"delivered"`
	// Evicted counts relay entries the store dropped under storage pressure.
	Evicted int `json:"evictions"`
	// EntriesExamined and CandidatesOffered are the serve walks' cost: the
	// store entries they visited and the candidates offered to batches.
	EntriesExamined   int `json:"entries_examined"`
	CandidatesOffered int `json:"candidates_offered"`
	// The knowledge frames this replica sent as sync target, by
	// representation (requests outside summary mode always count as full
	// frames), and their encoded bytes. SummaryFallbacks counts summary syncs
	// that needed an extra exact-knowledge round because the source refused
	// a delta.
	KnowledgeFullFrames  int   `json:"knowledge_full_frames"`
	KnowledgeDeltaFrames int   `json:"knowledge_delta_frames"`
	SummaryFallbacks     int   `json:"summary_fallbacks"`
	KnowledgeFullBytes   int64 `json:"knowledge_full_bytes"`
	KnowledgeDeltaBytes  int64 `json:"knowledge_delta_bytes"`
	// The routing state of the same requests: whether the policy's request
	// traveled whole or as a delta against the one last sent to the peer
	// (only ever beside a knowledge delta), and its encoded bytes. Requests
	// without routing state, or whose policy sends no deltas, count nowhere.
	RoutingFullFrames  int   `json:"routing_full_frames"`
	RoutingDeltaFrames int   `json:"routing_delta_frames"`
	RoutingFullBytes   int64 `json:"routing_full_bytes"`
	RoutingDeltaBytes  int64 `json:"routing_delta_bytes"`

	// Occupancy when Stats was read: the knowledge size (base entries plus
	// exceptions), and the store's live entries, live relay entries and
	// tombstones.
	KnowledgeSize    int `json:"knowledge_size"`
	Live             int `json:"-"`
	Relay            int `json:"-"`
	StoredTombstones int `json:"-"`
}

// StoreStats is the store section of a node's /metrics document.
type StoreStats struct {
	Live       int `json:"live"`
	Relay      int `json:"relay"`
	Tombstones int `json:"tombstones"`
	Evictions  int `json:"evictions"`
}

// Store returns s's store section.
func (s Stats) Store() StoreStats {
	return StoreStats{Live: s.Live, Relay: s.Relay, Tombstones: s.StoredTombstones, Evictions: s.Evicted}
}

// Add sums o into s, field by field, the batch-size buckets included.
func (s *Stats) Add(o Stats) { addCounts(reflect.ValueOf(s).Elem(), reflect.ValueOf(o)) }

func addCounts(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Int, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.Struct:
		for i := range dst.NumField() {
			addCounts(dst.Field(i), src.Field(i))
		}
	case reflect.Array:
		for i := range dst.Len() {
			addCounts(dst.Index(i), src.Index(i))
		}
	}
}

// Replica is one node's replica of the collection. All methods are safe for
// concurrent use.
type Replica struct {
	mu             sync.Mutex
	id             vclock.ReplicaID
	own            map[string]struct{}
	filter         filter.Filter
	policy         routing.Policy
	onDeliver      func(*item.Item)
	now            func() int64
	mergeKnowledge bool

	seq   uint64
	know  *vclock.Knowledge
	store *store.Store
	stats Stats
	// skipped, plan and cands are the serve's reused buffers of withheld
	// entries, of its plan and of its batch candidates, cleared after each
	// serve (DESIGN §4); planned is set by the first serve whose budget is
	// smaller than the store, which files it for the policy's plan.
	skipped []*store.Entry
	plan    []routing.Segment
	cands   []syncCandidate
	planned bool
	// A finished exact pull's shells, for the next request and serve (DESIGN §4).
	spareReq  *SyncRequest
	spareResp *SyncResponse

	// Mutation journal (see journal.go): journal receives batches, pending
	// accumulates under mu, emitMu serializes emission so delivery order
	// matches mutation order, hasJournal is the lock-free fast path that
	// keeps the unjournaled case at one atomic load per operation.
	journal    func([]Mutation)
	pending    []Mutation
	emitMu     sync.Mutex
	hasJournal atomic.Bool

	// Summary-mode state; see summary.go. epoch is this replica's
	// incarnation (starts at 1, bumped by RestoreSnapshot); frontiers is
	// target-side per-peer state, peerKnow source-side.
	summaries bool
	peerCap   int
	epoch     uint64
	// useTick is a logical clock stamping every frontier/baseline touch, so
	// eviction at peerCap drops the least recently used pair.
	useTick   uint64
	frontiers map[vclock.ReplicaID]*peerFrontier
	peerKnow  map[vclock.ReplicaID]*peerBaseline
}

// New creates a replica from cfg.
func New(cfg Config) *Replica {
	f := cfg.Filter
	if f == nil {
		f = filter.NewAddresses(cfg.OwnAddresses...)
	}
	r := &Replica{
		id:             cfg.ID,
		own:            make(map[string]struct{}, len(cfg.OwnAddresses)),
		filter:         f,
		policy:         cfg.Policy,
		onDeliver:      cfg.OnDeliver,
		now:            cfg.Now,
		mergeKnowledge: cfg.MergeKnowledge,
		know:           vclock.NewKnowledge(),
		store:          store.NewWithEviction(cfg.RelayCapacity, cfg.Eviction),
		summaries:      cfg.SyncSummaries,
		peerCap:        defaultSummaryPeerCap,
		epoch:          1,
		frontiers:      make(map[vclock.ReplicaID]*peerFrontier),
		peerKnow:       make(map[vclock.ReplicaID]*peerBaseline),
	}
	for _, a := range cfg.OwnAddresses {
		r.own[a] = struct{}{}
	}
	switch p := cfg.Policy.(type) {
	case nil: // basic replication offers a live item only on a filter match
		r.store.DestinationOnly(func(*store.Entry) bool { return true })
	case routing.DestinationOnly:
		r.store.DestinationOnly(p.DestinationOnly)
	}
	if cfg.OnCopies != nil {
		r.store.LiveNotify(cfg.OnCopies)
	}
	return r
}

// ID returns the replica identifier.
func (r *Replica) ID() vclock.ReplicaID { return r.id }

// Policy returns the attached routing policy (nil for the basic substrate).
func (r *Replica) Policy() routing.Policy { return r.policy }

// Filter returns the replica's current filter.
func (r *Replica) Filter() filter.Filter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.filter
}

// Stats returns the replica's ledger, its occupancy read now.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Evicted = r.store.Evicted()
	st.KnowledgeSize = r.know.Size()
	st.Live, st.Relay, st.StoredTombstones = r.store.LiveLen(), r.store.RelayLen(), r.store.TombstoneLen()
	return st
}

// abortSync records that a synchronization this replica initiated was
// interrupted mid-transfer and its partial batch discarded, after
// releaseLocked(done). Nothing else changes: the knowledge and store are
// exactly as they were before the sync began, which is what lets the next
// encounter resume precisely where this one failed. (Transactional sync: a
// batch applies atomically via ApplyBatch or, on an interrupted transfer,
// not at all.)
func (r *Replica) abortSync(done *SyncRequest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseLocked(done)
	r.stats.SyncsAborted++
}

// Knowledge returns a copy of the replica's knowledge.
func (r *Replica) Knowledge() *vclock.Knowledge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.know.Clone()
}

// StoreLen returns (total, live, relay) entry counts.
func (r *Replica) StoreLen() (total, live, relay int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Len(), r.store.LiveLen(), r.store.RelayLen()
}

// HasItem reports whether a live (non-tombstone) copy of the item is stored.
func (r *Replica) HasItem(id item.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.store.Get(id)
	return e != nil && !e.Item.Deleted
}

// Entry returns the stored entry for id, or nil. The entry is shared; callers
// must not mutate it.
func (r *Replica) Entry(id item.ID) *store.Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Get(id)
}

// Items returns the live in-filter items (the replica's application-visible
// collection) in deterministic order.
func (r *Replica) Items() []*item.Item {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*item.Item
	r.store.Range(func(e *store.Entry) bool {
		if !e.Item.Deleted && !e.Relay {
			out = append(out, e.Item)
		}
		return true
	})
	return out
}

// CreateItem inserts a new item into the local replica with the next local
// version. The creator always keeps its items (they are exempt from relay
// eviction), matching the paper's sender-copy semantics. The replica keeps
// meta and payload as given and they are immutable from here on (package
// item): a caller that goes on using either buffer passes copies.
func (r *Replica) CreateItem(meta item.Metadata, payload []byte) *item.Item {
	defer r.emitJournal() // deferred before the unlock, so it runs after it
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	it := &item.Item{
		ID:      item.ID{Creator: r.id, Num: r.seq},
		Version: vclock.Version{Replica: r.id, Seq: r.seq},
		Meta:    meta,
		Payload: payload,
	}
	r.know.Add(it.Version)
	r.journalLearnLocked(it.Version)
	r.store.Put(it, nil, !r.filter.Match(it), true)
	r.maybeDeliverLocked(it)
	return it
}

// UpdateItem replaces the payload of a stored item with a new version. Like
// CreateItem it keeps payload as given.
func (r *Replica) UpdateItem(id item.ID, payload []byte) (*item.Item, error) {
	return r.mutate(id, func(next *item.Item) { next.Payload = payload })
}

// DeleteItem marks a stored item deleted. The tombstone replicates like any
// update, so forwarding nodes eventually discard their copies — the paper's
// "no special acknowledgements are needed" deletion story.
func (r *Replica) DeleteItem(id item.ID) (*item.Item, error) {
	return r.mutate(id, func(next *item.Item) {
		next.Deleted = true
		next.Payload = nil
	})
}

func (r *Replica) mutate(id item.ID, apply func(*item.Item)) (*item.Item, error) {
	defer r.emitJournal() // deferred before the unlock, so it runs after it
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.store.Get(id)
	if e == nil {
		return nil, fmt.Errorf("replica %s: item %s not stored", r.id, id)
	}
	prev := e.Item
	r.seq++
	next := prev.Clone()
	next.Prior = append(next.Prior, prev.Version)
	next.Version = vclock.Version{Replica: r.id, Seq: r.seq}
	apply(next)
	r.know.Add(next.Version)
	r.journalLearnLocked(next.Version)
	r.store.Put(next, &e.Transient, e.Relay, e.Local)
	return next, nil
}

// SetIdentity atomically replaces the replica's delivery addresses and
// filter, rescanning the store: entries that now match the filter leave the
// relay partition, entries that no longer match (and are not local) join it,
// and stored items newly addressed to a local address are delivered. It
// returns the newly delivered items. This supports dynamic scenarios such as
// users moving between vehicular nodes from day to day.
func (r *Replica) SetIdentity(ownAddresses []string, f filter.Filter) []*item.Item {
	defer r.emitJournal() // deferred before the unlock, so it runs after it
	r.mu.Lock()
	defer r.mu.Unlock()
	if f == nil {
		f = filter.NewAddresses(ownAddresses...)
	}
	prevOwn := r.own
	r.filter = f
	r.own = make(map[string]struct{}, len(ownAddresses))
	for _, a := range ownAddresses {
		r.own[a] = struct{}{}
	}
	r.journalIdentityLocked()
	var delivered []*item.Item
	// Entries (a snapshot) rather than Range: reclassification mutates the
	// store mid-loop.
	for _, e := range r.store.Entries() {
		if r.store.Get(e.Item.ID) == nil {
			continue // evicted by an earlier reclassification in this loop
		}
		relay := !r.filter.Match(e.Item)
		if relay != e.Relay {
			r.store.Put(e.Item, &e.Transient, relay, e.Local)
		}
		newlyAddressed := r.addressedLocally(e.Item) && !addressedBy(prevOwn, e.Item)
		if !e.Item.Deleted && newlyAddressed && r.store.Get(e.Item.ID) != nil {
			delivered = append(delivered, e.Item)
			r.deliverLocked(e.Item)
		}
	}
	return delivered
}

func addressedBy(own map[string]struct{}, it *item.Item) bool {
	for _, d := range it.Meta.Destinations {
		if _, ok := own[d]; ok {
			return true
		}
	}
	return false
}

func (r *Replica) addressedLocally(it *item.Item) bool {
	return addressedBy(r.own, it)
}

func (r *Replica) maybeDeliverLocked(it *item.Item) {
	if !it.Deleted && !r.expiredLocked(&it.Meta) && r.addressedLocally(it) {
		r.deliverLocked(it)
	}
}

// expiredLocked reports whether metadata is past its lifetime under the
// replica's clock (never, without a clock).
func (r *Replica) expiredLocked(m *item.Metadata) bool {
	//lint:allow callbackunderlock -- Config.Now is documented as a pure clock read invoked under the replica lock; it must not call back into the replica
	return r.now != nil && m.Expired(r.now())
}

// PurgeExpired removes expired live items from the store and returns how
// many were removed. Their versions stay in knowledge, so purged items are
// never re-accepted. Locally created items are kept until their senders
// delete them explicitly (applications may want the record).
func (r *Replica) PurgeExpired() int {
	defer r.emitJournal() // deferred before the unlock, so it runs after it
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.now == nil {
		return 0
	}
	// Collect first, remove second: Range walks the live index, which must
	// not be mutated mid-iteration.
	var expired []item.ID
	r.store.Range(func(e *store.Entry) bool {
		if !e.Item.Deleted && !e.Local && r.expiredLocked(&e.Item.Meta) {
			expired = append(expired, e.Item.ID)
		}
		return true
	})
	for _, id := range expired {
		r.store.Remove(id)
	}
	return len(expired)
}

func (r *Replica) deliverLocked(it *item.Item) {
	r.stats.Delivered++
	if r.onDeliver != nil {
		//lint:allow callbackunderlock -- Config.OnDeliver is documented as invoked with the replica lock held, keeping delivery ordered with batch application; re-entry is the callback's contract to avoid
		r.onDeliver(it)
	}
}
