package replica

import (
	"cmp"
	"slices"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/itemcodec"
)

// SyncRequest is the target→source half of the sync protocol: the target's
// knowledge, filter, and policy routing state (paper Fig. 4).
type SyncRequest struct {
	// TargetID identifies the requesting replica.
	TargetID vclock.ReplicaID
	// Knowledge is the target's learned-version set; the source sends only
	// versions outside it, which yields at-most-once delivery. In summary
	// mode exactly one of Knowledge or Delta is set.
	Knowledge *vclock.Knowledge
	// Delta ships only the knowledge learned since the frontier this target
	// last sent the source, tagged with the target's (epoch, generation);
	// the source reconstructs exact knowledge from its cached baseline, or
	// answers NeedKnowledge when the tags do not match strictly.
	Delta *vclock.Delta
	// Epoch and Gen tag a full Knowledge frame sent in summary mode (Epoch
	// is never 0 on such frames): they let the source cache the frame as
	// the delta baseline for this pair. Untagged frames are not cached.
	Epoch uint64
	Gen   uint64
	// Filter is the target's content-based filter; matching items are always
	// included and transmitted first.
	Filter filter.Filter
	// Routing carries policy-specific state (e.g. a PROPHET predictability
	// vector) produced by the target's policy GenerateReq. On a decoded
	// request that carried RoutingDelta instead, it is nil.
	Routing routing.Request
	// RoutingDelta, set only beside Delta, is Routing as a difference from
	// the routing state of this target's previous frame to the source, and
	// what travels in Routing's place. The source reconstructs Routing from
	// the copy it cached beside the knowledge baseline, under the same tag
	// check; the target keeps Routing set for the fallback round to replay.
	RoutingDelta routing.Delta
	// MaxItems bounds the batch size (0 = unlimited), modeling constrained
	// encounter bandwidth.
	MaxItems int
	// MaxBytes bounds the batch's encoded batch-item bytes (0 = unlimited):
	// items are taken in priority order until the next would exceed the
	// budget. Unless StrictBytes is set, at least one item is always sent
	// when anything is eligible, so a large message cannot deadlock a
	// small-budget contact.
	MaxBytes int64
	// StrictBytes disables the at-least-one exception; used for the second
	// leg of an encounter, whose budget is the remainder of a shared one.
	StrictBytes bool
	// know holds Knowledge when it is this replica's clone, in one allocation.
	know vclock.Knowledge
}

// BatchItem is one transmitted item copy: the replicated item plus the
// transient (host-specific) metadata the source chose to attach, and the
// priority it was assigned. Item may be the very *item.Item the source has
// stored (stored items are immutable — see package item); Transient is a
// value, the batch's own copy.
type BatchItem struct {
	Item      *item.Item
	Transient item.Transient
	Priority  routing.Priority
}

// SyncResponse is the source→target half: the prioritized batch, plus —
// when the source can prove it is a superset replica for the target — its
// full knowledge, which the target may adopt wholesale to keep its own
// knowledge compact (the Cimbiosys knowledge-merge optimization).
type SyncResponse struct {
	SourceID  vclock.ReplicaID
	Items     []BatchItem
	Truncated bool
	// NeedKnowledge demands an exact-knowledge retry of a summary-mode
	// request: the source could not apply the delta (tag mismatch after a
	// restart or lost frame). The response carries no items and the
	// source has not processed the request's routing state, so the retry
	// replays the same routing frame and the exchange counts once.
	NeedKnowledge bool
	// LearnedKnowledge, when non-nil, is the source's knowledge offered for
	// wholesale merging. It is only set when the source's filter covers the
	// target's and the batch was not truncated, so every version it covers
	// that the target's filter selects either travels in this batch or is
	// already stored at the target.
	LearnedKnowledge *vclock.Knowledge
}

// ApplyStats summarizes one ApplyBatch call.
type ApplyStats struct {
	// Stored counts newly stored in-filter items.
	Stored int
	// Relayed counts newly stored out-of-filter (relay) items.
	Relayed int
	// Delivered counts items handed to the application.
	Delivered int
	// Duplicates counts already-known versions (must be zero under the
	// substrate's guarantee).
	Duplicates int
	// Superseded counts received versions older than the stored one.
	Superseded int
	// Tombstones counts deletion records applied.
	Tombstones int
	// Evicted counts relay entries expelled by storage pressure.
	Evicted int
	// Expired counts received items already past their lifetime (dropped).
	Expired int
	// KnowledgeMerged reports that the source's knowledge was adopted
	// wholesale (the compact-metadata fast path).
	KnowledgeMerged bool
}

// MakeSyncRequest builds the request this replica sends when initiating a
// synchronization (acting as target). maxItems bounds the returned batch
// (0 = unlimited). The attached knowledge is a copy-on-write clone — taking
// it is O(1), and it stays consistent even as this replica keeps learning
// versions while the source reads it.
func (r *Replica) MakeSyncRequest(maxItems int) *SyncRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	req := r.newRequestLocked(maxItems)
	// Sized on r.know, not on the clone, so the memo outlives the request:
	// every consumer of a request asks for the frame's size.
	r.know.WireSize()
	req.Knowledge = r.know.CloneInto(&req.know)
	r.countFullLocked(req)
	return req
}

// newRequestLocked counts an initiated sync and returns its request, with
// the routing state and without a knowledge frame, in the shell a finished
// pull left when there is one.
func (r *Replica) newRequestLocked(maxItems int) *SyncRequest {
	r.stats.SyncsInitiated++
	if r.metrics != nil {
		r.metrics.SyncsInitiated.Inc()
		r.metrics.KnowledgeSize.Set(int64(r.know.Size()))
	}
	req := r.spareReq
	if r.spareReq = nil; req == nil {
		req = new(SyncRequest)
	}
	*req = SyncRequest{TargetID: r.id, Filter: r.filter, MaxItems: maxItems}
	if r.policy != nil {
		req.Routing = r.policy.GenerateReq()
	}
	return req
}

// countFullLocked counts req's exact knowledge frame and its routing state.
func (r *Replica) countFullLocked(req *SyncRequest) {
	r.stats.KnowledgeFulls++
	if r.metrics != nil {
		r.metrics.KnowledgeFullFrames.Inc()
		r.metrics.KnowledgeFullBytes.Add(int64(req.Knowledge.WireSize()))
		r.countRoutingLocked(req)
	}
}

// releaseLocked gives back the shares of done, a finished request of this
// replica's (nil: none) — its knowledge clone, if it carried one, and its
// routing state — and keeps its shell for the next request.
func (r *Replica) releaseLocked(done *SyncRequest) {
	if done == nil {
		return
	}
	if done.Knowledge != nil {
		r.know.Release(done.Knowledge)
	}
	if rel, ok := r.policy.(routing.Releaser); ok {
		rel.Release(done.Routing)
	}
	*done, r.spareReq = SyncRequest{}, done
}

// selectorLimit derives the number of candidates worth retaining from the
// request's budgets: the item bound directly, and the byte bound via the
// smallest batch item the wire encodes (every batch item costs at least
// itemcodec.MinBatchItemSize bytes, so a byte budget implies an item
// budget). The slack of 2 keeps the at-least-one exception and the cut
// boundary safely inside the retained prefix. 0 means unbounded.
func selectorLimit(req *SyncRequest) int {
	limit := 0
	if req.MaxItems > 0 {
		limit = req.MaxItems
	}
	if req.MaxBytes > 0 {
		byteLimit := int(req.MaxBytes/int64(itemcodec.MinBatchItemSize)) + 2
		if limit == 0 || byteLimit < limit {
			limit = byteLimit
		}
	}
	return limit
}

// HandleSyncRequest serves a synchronization request (acting as source): it
// processes the request's routing state, then streams store entries off the
// per-creator version runs — never visiting what the target's base vector
// covers, skipping known exceptions and expired versions inline — and keeps
// only the top-K batch under the request's budgets in a bounded priority
// heap. It walks the runs in the order of its plan (planLocked), and
// under a budget stops once its batch is decided (DESIGN §4).
// Tombstones and filter-matched items keep their priority-class ordering;
// the full batch is materialized and sorted only when the request carries
// no budget at all. The emitted batch is identical, item for item,
// to sorting every candidate and truncating afterwards. The response is the
// caller's, in the shell of one this replica's Pull applied, when left.
func (r *Replica) HandleSyncRequest(req *SyncRequest) *SyncResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Summary mode: recover the target's knowledge before touching any other
	// state. When a delta cannot be matched, answer NeedKnowledge without
	// counting the sync or processing routing state, so the exact-knowledge
	// retry runs as if it were the first and only round.
	know, rt, ok := r.resolveKnowledgeLocked(req)
	if !ok {
		return &SyncResponse{SourceID: r.id, NeedKnowledge: true}
	}
	r.stats.SyncsServed++
	if r.policy != nil && rt != nil {
		r.policy.ProcessReq(req.TargetID, rt)
	}
	target := routing.Target{ID: req.TargetID, Filter: req.Filter}

	limit := selectorLimit(req)
	sel := batchSelector{limit: limit, room: min(limit, r.store.Len()), cands: r.cands[:0]}
	r.planLocked(target, limit)
	// One loop walks the plan's segments, each one creator run at a time
	// above the target's base vector; view is that creator's share of know,
	// loaded with the run's floor. In an ordered run of a segment at a fixed
	// price the first candidate the heap turns away ends the run, and then a
	// run it cannot enter is passed over whole, as is a destination's.
	var view vclock.CreatorView
	var seg *routing.Segment
	i, stop := 0, false
	floor := func(c vclock.ReplicaID, ordered bool) uint64 {
		view = know.View(c)
		stop = limit > 0 && ordered && seg.Priority != routing.Skip
		if stop && sel.total > limit && !sel.admits(seg.Priority, item.ID{Creator: c, Num: view.Base + 1}) {
			return ^uint64(0) // covers every seq of an ordered run
		}
		return view.Base
	}
	visit := func(e *store.Entry) bool {
		if view.HasException(e.Item.Version.Seq) || e.UnderDestinations() && r.filedBefore(e, i) {
			return true
		}
		if !e.Item.Deleted && r.expiredLocked(&e.Item.Meta) {
			// Dead messages are not worth encounter bandwidth.
			return true
		}
		c := syncCandidate{entry: e, priority: seg.Priority}
		switch {
		case seg.Runs == routing.DestRuns:
		case e.Item.Deleted, req.Filter != nil && req.Filter.Match(e.Item):
			// Tombstones always travel: they clear forwarders' copies and
			// immunize the target against stale live versions.
			c.priority = routing.Priority{Class: routing.ClassFilter}
		case r.policy != nil:
			if limit > 0 && seg.Bound != nil && !sel.admits(seg.Bound(e), e.Item.ID) {
				sel.total++ // a candidate the full batch turns away, unpriced
				return !stop
			}
			pr, tr := r.policy.ToSend(e, target)
			if pr.Class == routing.ClassSkip {
				r.skipped = append(r.skipped, e)
				return true
			}
			c.priority, c.transient = pr, tr
		default:
			return true
		}
		return sel.offer(c) || !stop
	}
	var examined int
	for i = range r.plan {
		switch seg = &r.plan[i]; seg.Runs {
		case routing.MainRuns:
			examined += r.store.RangeAbove(floor, visit)
		case routing.AllDestRuns:
			examined += r.store.RangeAboveDestinations(floor, visit)
		default:
			if sel.total <= limit || sel.admits(seg.Priority, item.ID{}) {
				examined += r.store.RangeAboveTo(seg.To, floor, visit)
			}
		}
	}
	// Refile, after the walks, what they withheld for good (a spent copy).
	for i, e := range r.skipped {
		r.store.Refile(e)
		r.skipped[i] = nil
	}
	r.skipped = r.skipped[:0]
	cands := sel.finish()

	resp := r.spareResp
	if r.spareResp = nil; resp == nil {
		resp = new(SyncResponse)
	}
	resp.SourceID = r.id
	if req.MaxItems > 0 && sel.total > req.MaxItems {
		// The byte budget may have bounded retention below MaxItems; the
		// byte cut below always falls inside the retained prefix.
		cands, resp.Truncated = cands[:min(req.MaxItems, len(cands))], true
	}
	if len(cands) > 0 {
		resp.Items = slices.Grow(resp.Items, len(cands))[:len(cands)]
	}
	// Each item is charged what the wire encodes for it, the transmit
	// transient and the priority framing included.
	var used int64
	for i := range cands {
		c := &cands[i]
		bi := BatchItem{Item: c.entry.Item, Transient: transmitTransient(c.entry, c.transient), Priority: c.priority}
		if req.MaxBytes > 0 {
			used += int64(itemcodec.BatchItemSize(bi.Item, bi.Transient, int64(bi.Priority.Class)))
			if used > req.MaxBytes && (i > 0 || req.StrictBytes) {
				resp.Items, resp.Truncated = resp.Items[:i], true
				break
			}
		}
		resp.Items[i] = bi
	}
	clear(sel.cands) // the buffer kept for the next serve pins no entry
	if r.cands = sel.cands[:0]; cap(r.cands) > keptCands {
		r.cands = nil
	}
	// Offer wholesale knowledge when this replica provably sees everything
	// the target's filter selects: the target can then compact its knowledge
	// to a plain vector instead of accumulating per-item exceptions. Safe
	// because in-filter items are never evicted, so every version in our
	// knowledge that matches our filter is either stored here (and in this
	// batch if unknown to the target) or superseded.
	if !resp.Truncated && req.Filter != nil && r.filter.Covers(req.Filter) {
		resp.LearnedKnowledge = r.know.Clone()
	}
	r.stats.ItemsSent += len(resp.Items)
	if r.metrics != nil {
		r.metrics.SyncsServed.Inc()
		r.metrics.ItemsSent.Add(int64(len(resp.Items)))
		r.metrics.EntriesExamined.Add(int64(examined))
		r.metrics.CandidatesOffered.Add(int64(sel.total))
	}
	return resp
}

// planLocked builds the serve's plan in r.plan (DESIGN §4): the target's
// address runs at the filter class, or under another filter every
// destination's runs; once the store is filed for it, the policy's other
// destinations, best first; the main runs, at the policy's price. The first
// serve whose budget is smaller than the store files it. Under a filter that
// is not an address set a match may sit in any run: only the bound is kept.
func (r *Replica) planLocked(t routing.Target, limit int) {
	r.plan = r.plan[:0]
	f, lookup := t.Filter.(*filter.Addresses)
	if lookup {
		f.Each(func(a string) {
			r.plan = append(r.plan, routing.Segment{Runs: routing.DestRuns, To: a, Priority: routing.Priority{Class: routing.ClassFilter}})
		})
	} else if t.Filter != nil {
		r.plan = append(r.plan, routing.Segment{Runs: routing.AllDestRuns})
	}
	n, main := len(r.plan), routing.Segment{}
	if p, ok := r.policy.(routing.Planner); ok && (r.planned || limit > 0 && r.store.Len() > limit) {
		r.plan = p.Plan(r.plan, t)
		walksMain := len(r.plan) > n && r.plan[len(r.plan)-1].Runs == routing.MainRuns
		if walksMain {
			main, r.plan = r.plan[len(r.plan)-1], r.plan[:len(r.plan)-1]
		}
		if !r.planned && (!walksMain || main.Priority != routing.Skip) {
			r.store.FileUnderDestinations(!walksMain)
		}
		r.planned = true
		if lookup { // without the target's own addresses, walked already
			r.plan = r.plan[:n+len(slices.DeleteFunc(r.plan[n:], func(s routing.Segment) bool { return f.Contains(s.To) }))]
		} else if t.Filter != nil {
			r.plan, main.Priority = r.plan[:n], routing.Skip
		}
		slices.SortStableFunc(r.plan[n:], func(a, b routing.Segment) int {
			return cmp.Or(cmp.Compare(b.Priority.Class, a.Priority.Class), cmp.Compare(a.Priority.Cost, b.Priority.Cost))
		})
	}
	r.plan = append(r.plan, main)
}

// filedBefore reports whether a segment of the plan before the i-th walks a
// destination's runs that file e, which is filed under its destinations: e
// was offered there, or turned away at no worse a price. The plan names a
// destination once, so its own runs file its entries of one destination first.
func (r *Replica) filedBefore(e *store.Entry, i int) bool {
	dests := e.Item.Meta.Destinations
	return (r.plan[i].Runs != routing.DestRuns || len(dests) > 1) &&
		slices.ContainsFunc(r.plan[:i], func(s routing.Segment) bool { return s.Runs == routing.DestRuns && slices.Contains(dests, s.To) })
}

// transmitTransient builds the host-specific metadata accompanying a
// transmitted copy. Per-copy fields accompany the copy they describe (the
// paper's epidemic policy forwards copies carrying a decremented TTL, and its
// spray policy halves the allowance "for both the locally stored item and the
// item in the synchronization batch"); only *updates* to them stay local and
// never replicate as new versions. A policy may substitute its own transient
// for the in-flight copy; the zero Transient (filter-matched transfers, and
// policies that attach nothing) carries the stored one unchanged. The copy's
// hop count always travels and is incremented by the receiver.
func transmitTransient(e *store.Entry, policySet item.Transient) item.Transient {
	if policySet == (item.Transient{}) {
		return e.Transient
	}
	if hops, ok := e.Transient.Get(item.FieldHops); ok && !policySet.Has(item.FieldHops) {
		policySet.Set(item.FieldHops, hops)
	}
	return policySet
}

// ApplyBatch ingests a synchronization response (acting as target): fold
// every carried version into knowledge, store new items in the appropriate
// partition, apply tombstones, and deliver items addressed to this replica.
//
// Application is transactional with respect to the transfer: ApplyBatch must
// only ever be handed a complete batch. Under the replica lock it has no
// failure points — every item's knowledge fold and store mutation happen
// together, and the optional wholesale knowledge merge runs only after every
// item has been stored — so a caller-visible batch is always applied in full.
// Pull, which hands every pulled batch to ApplyBatch, discards a transfer its
// carrier reports interrupted (a TCP session, a link the fault-injecting
// emulator cuts) before this point (see abortSync): a partial batch must
// never reach ApplyBatch, because folding a prefix of the batch's versions into knowledge
// would permanently suppress re-transmission of the lost suffix. Durability
// composes the same way: internal/persist snapshots are taken between syncs,
// so a crash never persists a half-applied batch, and a batch replayed after
// a restart is rejected item-by-item through the restored knowledge.
//
// The response is consumed: each new item is stored as it is, not copied.
// The caller must not write anything reachable from resp afterwards, nor
// hand the same response to a second replica. resp itself stays the
// caller's: a replica reuses a response's shell only when its own Pull
// received it (DESIGN §4). Nothing reachable from the source's store is
// written — items are immutable once stored, and a batch's transients are
// values of its own — so an in-process fleet shares one *item.Item per
// version and a TCP receiver keeps the decoder's copy.
func (r *Replica) ApplyBatch(resp *SyncResponse) ApplyStats { return r.applyBatch(resp, nil) }

// applyBatch is ApplyBatch after releaseLocked(done), under the same lock.
// With done set, resp is Pull's: once applied it is this replica's next
// serve's shell, its items cleared and their array kept.
func (r *Replica) applyBatch(resp *SyncResponse, done *SyncRequest) ApplyStats {
	defer r.emitJournal() // deferred before the unlock, so it runs after it
	r.mu.Lock()
	defer r.mu.Unlock()
	r.releaseLocked(done)
	var st ApplyStats
	for _, bi := range resp.Items {
		incoming := bi.Item
		if r.know.Contains(incoming.Version) {
			st.Duplicates++
			r.stats.Duplicates++
			continue
		}
		r.know.Add(incoming.Version)
		for _, v := range incoming.Prior {
			r.know.Add(v)
		}
		if r.hasJournal.Load() { // AllVersions allocates; only a journal wants the slice
			r.journalLearnLocked(incoming.AllVersions()...)
		}
		r.stats.ItemsReceived++

		existing := r.store.Get(incoming.ID)
		if existing != nil && !incoming.Supersedes(existing.Item) {
			st.Superseded++
			continue
		}
		if !incoming.Deleted && r.expiredLocked(&incoming.Meta) {
			// The version is recorded in knowledge (never re-accepted) but
			// an expired message is neither stored nor delivered.
			st.Expired++
			continue
		}

		// The copy's hop count is host-specific: it grows by one on arrival.
		tr := bi.Transient
		hops, _ := tr.Get(item.FieldHops)
		tr.Set(item.FieldHops, hops+1)

		relay := !r.filter.Match(incoming)
		local := existing != nil && existing.Local
		evicted := r.store.Put(incoming, &tr, relay, local)
		st.Evicted += len(evicted)
		r.stats.Evicted += len(evicted)

		switch {
		case incoming.Deleted:
			st.Tombstones++
		case relay:
			st.Relayed++
		default:
			st.Stored++
		}
		if !incoming.Deleted && r.addressedLocally(incoming) && r.store.Get(incoming.ID) != nil {
			wasAddressed := existing != nil && !existing.Item.Deleted && r.addressedLocally(existing.Item)
			if !wasAddressed {
				st.Delivered++
				r.deliverLocked(incoming)
			}
		}
	}
	// Merge after items apply so every batch version is stored first.
	if resp.LearnedKnowledge != nil && r.mergeKnowledge {
		r.know.Merge(resp.LearnedKnowledge)
		r.journalMergeLocked()
		st.KnowledgeMerged = true
	}
	if r.metrics != nil {
		r.recordApplyLocked(len(resp.Items), st)
	}
	if done != nil {
		clear(resp.Items)
		*resp, r.spareResp = SyncResponse{Items: resp.Items[:0]}, resp
	}
	return st
}

// recordApplyLocked mirrors one ApplyBatch outcome into the metrics sink.
func (r *Replica) recordApplyLocked(batchLen int, st ApplyStats) {
	m := r.metrics
	m.BatchesApplied.Inc()
	m.BatchItems.Observe(int64(batchLen))
	m.ItemsApplied.Add(int64(st.Stored + st.Relayed + st.Tombstones))
	m.Stored.Add(int64(st.Stored))
	m.Relayed.Add(int64(st.Relayed))
	m.Tombstones.Add(int64(st.Tombstones))
	m.Duplicates.Add(int64(st.Duplicates))
	m.Superseded.Add(int64(st.Superseded))
	m.Expired.Add(int64(st.Expired))
	m.Delivered.Add(int64(st.Delivered))
	m.Evictions.Add(int64(st.Evicted))
	m.KnowledgeSize.Set(int64(r.know.Size()))
}

// KnowledgeWireBytes returns the encoded size of whichever knowledge frame
// the request carries (exact or delta), for byte accounting.
func (req *SyncRequest) KnowledgeWireBytes() int64 {
	switch {
	case req.Knowledge != nil:
		return int64(req.Knowledge.WireSize())
	case req.Delta != nil:
		return int64(req.Delta.WireSize())
	}
	return 0
}

// BatchBytes sums the encoded batch-item bytes of a response's items: what
// its item section takes on the wire, less the item count.
func BatchBytes(resp *SyncResponse) int64 {
	var total int64
	for i := range resp.Items {
		bi := &resp.Items[i]
		total += int64(itemcodec.BatchItemSize(bi.Item, bi.Transient, int64(bi.Priority.Class)))
	}
	return total
}
