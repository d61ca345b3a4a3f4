package replica

import (
	"replidtn/internal/routing"
	"replidtn/internal/vclock"
)

// This file implements the compact knowledge summary mode of the sync
// protocol. The paper's Fig. 4 exchange opens every sync with the target's
// full knowledge frame; at large replica counts that frame — not the item
// batch — dominates per-encounter bytes. Summary mode sends a recurring
// peer pair delta knowledge instead: the target remembers the knowledge
// frontier it last sent this source and ships only what it learned since,
// tagged with its (epoch, generation). First contact sends a tagged exact
// frame, which establishes the frontier. A restarted source — or any lost
// frame — is detected by strict tag matching and answered with a demand for
// an exact-knowledge fallback round instead of a stale baseline, so the
// served batch is provably identical to the one an exact knowledge frame
// would have produced. That is what lets the differential suite require
// bit-identical delivery results with summaries on and off.
//
// The per-peer state behind delta knowledge is the one record of "what this
// peer last saw from me", so the policy's routing state rides it too: a
// request that travels as a knowledge delta carries its routing state as a
// delta against the previous frame's, when the policy's request type opts in
// (routing.DeltaRequest), under the same tag check and the same fallback.

// peerFrontier is target-side state: the knowledge and the routing request
// this replica last shipped to a given source, and the generation number of
// that frame within the current epoch. The next frame to the same source is
// the diff against know and routing, a copy of the request's routing state
// in the frontier's own storage (see keepRouting). use is the replica's
// useTick at the last touch, for LRU eviction.
type peerFrontier struct {
	use     uint64
	gen     uint64
	know    *vclock.Knowledge
	routing routing.Request
}

func (f *peerFrontier) lastUse() uint64 { return f.use }

// peerBaseline is source-side state: the exact knowledge and routing request
// a given target last established here (via a tagged full frame), advanced by
// each delta frame whose (epoch, gen) tags match strictly. routing is the
// baseline's own copy; a routing delta is applied into spare, the copy before
// it, and the two swap once it fits. use is the replica's useTick at the last
// touch, for LRU eviction.
type peerBaseline struct {
	use            uint64
	epoch          uint64
	gen            uint64
	know           *vclock.Knowledge
	routing, spare routing.Request
}

func (b *peerBaseline) lastUse() uint64 { return b.use }

// evictOldestLocked drops least-recently-used entries from a per-peer
// summary cache until it has room for one more under limit. Peer IDs are
// self-declared over the transport, so these maps must stay bounded no
// matter how many identities a hostile dialer invents; each entry pins a
// knowledge clone. Eviction never affects correctness — an evicted pair
// pays one tagged full frame (frontier side) or one NeedKnowledge fallback
// round (baseline side) at its next encounter. The linear scan only runs
// when a new peer arrives with the cache full, and limit is small.
func evictOldestLocked[E interface{ lastUse() uint64 }](m map[vclock.ReplicaID]E, limit int) {
	for len(m) >= limit {
		var oldest vclock.ReplicaID
		first := true
		var min uint64
		for id, e := range m {
			if first || e.lastUse() < min {
				first, min, oldest = false, e.lastUse(), id
			}
		}
		delete(m, oldest)
	}
}

// stampUseLocked advances the recency clock and returns the new stamp.
func (r *Replica) stampUseLocked() uint64 {
	r.useTick++
	return r.useTick
}

// SummariesEnabled reports whether this replica initiates syncs in summary
// mode. Fixed at construction; the in-process session drivers and the
// transport's encounters consult it to pick the request form.
func (r *Replica) SummariesEnabled() bool { return r.summaries }

// Epoch returns the replica's incarnation number (1 for a fresh replica,
// bumped by every snapshot restore). Exposed for tests and diagnostics.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// MakeSummaryRequest builds the request this replica sends when initiating a
// synchronization in summary mode (acting as target). The knowledge frame is
// chosen per peer: a delta once a frontier exists for the peer, and an exact
// (epoch/gen-tagged) full frame otherwise — the tagged frame is what
// establishes the frontier that upgrades the pair to deltas.
func (r *Replica) MakeSummaryRequest(peer vclock.ReplicaID, maxItems int) *SyncRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	req := r.newRequestLocked(maxItems)
	if f := r.frontiers[peer]; f != nil {
		f.use = r.stampUseLocked()
		changes := r.know.DiffSince(f.know)
		f.gen++
		f.know = r.know.Clone()
		req.Delta = vclock.NewDelta(r.epoch, f.gen, changes)
		if cur, ok := req.Routing.(routing.DeltaRequest); ok {
			req.RoutingDelta = cur.DeltaSince(f.routing)
		}
		f.routing = keepRouting(f.routing, req.Routing)
		r.stats.KnowledgeDeltaFrames++
		r.stats.KnowledgeDeltaBytes += int64(req.Delta.WireSize())
		r.countRoutingLocked(req)
	} else {
		r.attachFullLocked(req, peer)
	}
	return req
}

// MakeFallbackRequest builds the exact-knowledge retry of a summary sync the
// source answered with NeedKnowledge. It reuses the first round's routing
// state verbatim — the source only processes routing when it serves a batch,
// so the policy sees the exchange exactly once, like an exact sync — and does
// not count as a new initiated sync. The tagged full frame it carries also
// (re-)establishes the peer's frontier, so a pair that fell back resumes
// delta mode on the next encounter.
func (r *Replica) MakeFallbackRequest(peer vclock.ReplicaID, maxItems int, rt routing.Request) *SyncRequest {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.SummaryFallbacks++
	req := &SyncRequest{TargetID: r.id, Filter: r.filter, MaxItems: maxItems, Routing: rt}
	r.attachFullLocked(req, peer)
	return req
}

// attachFullLocked puts an epoch/gen-tagged exact knowledge frame on req and
// records it, with req's routing state, as the new frontier for peer. The tag
// tells the source this frame may be cached as the delta baseline for this
// pair.
func (r *Replica) attachFullLocked(req *SyncRequest, peer vclock.ReplicaID) {
	f := r.frontiers[peer]
	if f == nil {
		evictOldestLocked(r.frontiers, r.peerCap)
		// Generations restart above every one this epoch has used (each frame
		// advances useTick at least as far as its frontier's gen): the peer
		// may still hold the baseline of a frontier evicted here, and a
		// frame lost now must not let a later delta match that one's tag.
		f = &peerFrontier{gen: r.useTick}
		r.frontiers[peer] = f
	}
	f.use = r.stampUseLocked()
	f.gen++
	r.know.WireSize() // as in MakeSyncRequest
	f.know = r.know.Clone()
	f.routing = keepRouting(f.routing, req.Routing)
	req.Knowledge = r.know.CloneInto(&req.know) // a share of r.know, as Pull releases it
	req.Epoch = r.epoch
	req.Gen = f.gen
	r.countFullLocked(req)
}

// keepRouting returns rt as a per-peer record keeps it, in kept's storage:
// a copy, for the request is given back to its policy once its sync is over
// and the sender writes what it shares (routing.Releaser); nil when rt's
// policy sends no deltas, as nothing reads it then.
func keepRouting(kept, rt routing.Request) routing.Request {
	if cur, ok := rt.(routing.DeltaRequest); ok {
		return cur.CopyInto(kept)
	}
	return nil
}

// countRoutingLocked counts the form req's routing state travels in, and
// its encoded size.
func (r *Replica) countRoutingLocked(req *SyncRequest) {
	if req.RoutingDelta != nil {
		r.stats.RoutingDeltaFrames++
		r.stats.RoutingDeltaBytes += int64(req.RoutingDelta.WireSize())
	} else if full, ok := req.Routing.(routing.DeltaRequest); ok {
		r.stats.RoutingFullFrames++
		r.stats.RoutingFullBytes += int64(full.WireSize())
	}
}

// resolveKnowledgeLocked recovers the target's knowledge and routing state
// from whichever representation the request carries, acting as source.
//
// It returns the exact knowledge — given directly or reconstructed from a
// delta against the cached baseline — with the routing request to process
// (nil for none), or ok=false when the source must answer NeedKnowledge: a
// delta whose (epoch, gen) tags do not extend the cached baseline strictly —
// cache missing (we restarted, or never saw the baseline), wrong epoch (the
// target restarted), or a generation gap (a frame was lost) — is refused
// rather than merged onto a possibly-stale baseline, and so is a routing
// delta that does not fit the cached request. A refusal leaves the baseline
// as it was; the retry replaces it whole.
func (r *Replica) resolveKnowledgeLocked(req *SyncRequest) (know *vclock.Knowledge, rt routing.Request, ok bool) {
	switch {
	case req.Knowledge != nil:
		if req.Epoch != 0 {
			c := r.peerKnow[req.TargetID]
			if c == nil {
				evictOldestLocked(r.peerKnow, r.peerCap)
				c = new(peerBaseline)
				r.peerKnow[req.TargetID] = c
			}
			c.use, c.epoch, c.gen = r.stampUseLocked(), req.Epoch, req.Gen
			c.know = req.Knowledge.Clone()
			c.routing = keepRouting(c.routing, req.Routing)
		}
		return req.Knowledge, req.Routing, true
	case req.Delta != nil:
		c := r.peerKnow[req.TargetID]
		if c == nil || c.epoch != req.Delta.Epoch() || c.gen+1 != req.Delta.Gen() {
			return nil, nil, false
		}
		// In process the full request arrives beside its delta and serves
		// as is; off the wire only the delta does, and is applied into the
		// spare copy, so a delta that does not fit leaves the baseline whole.
		if rt = req.Routing; rt != nil || req.RoutingDelta == nil {
			c.routing = keepRouting(c.routing, rt)
		} else {
			next, err := req.RoutingDelta.Apply(c.routing, c.spare)
			if err != nil {
				return nil, nil, false
			}
			rt, c.routing, c.spare = next, next, c.routing
		}
		c.use = r.stampUseLocked()
		c.know.Merge(req.Delta.Changes())
		c.gen = req.Delta.Gen()
		return c.know, rt, true
	default:
		// A request with no knowledge at all; the transport rejects this
		// before it reaches us, and in-process callers always attach one.
		// Serve against empty knowledge rather than crash on hostile input.
		return vclock.NewKnowledge(), req.Routing, true
	}
}
