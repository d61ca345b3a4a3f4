package replica

import (
	"errors"

	"replidtn/internal/vclock"
)

// Budget bounds one synchronization or encounter: a maximum item count
// and/or a maximum of encoded batch-item bytes (zero fields mean unlimited).
type Budget struct {
	Items int
	Bytes int64
}

// SyncResult summarizes one directed synchronization.
type SyncResult struct {
	Sent      int
	SentBytes int64 // encoded batch-item bytes (BatchBytes), on every carrier
	Truncated bool
	// Aborted reports that the transfer died mid-batch and the partial batch
	// was discarded transactionally: the target applied nothing, its knowledge
	// is untouched, and Sent/SentBytes count only the wasted partial transfer.
	Aborted bool
	// KnowledgeBytes is the encoded size of the knowledge frame(s) the
	// target shipped for this sync — the exact frame, or the summary frame
	// plus the exact retry when a fallback round ran.
	// This is the cost the summary protocol exists to shrink.
	KnowledgeBytes int64
	// Fallback reports that a summary-mode sync needed the extra
	// exact-knowledge round.
	Fallback bool
	Apply    ApplyStats
}

// Carrier moves one sync request from the target to the source and brings
// the source's response back: in process, over a link that may die, or over
// a TCP session. On an error the response, when not nil, holds the batch
// items that crossed before the carrier failed and stays the carrier's;
// without one it is Pull's, reused once applied. Once a carrier returns,
// nothing it started reads the request any more.
type Carrier func(*SyncRequest) (*SyncResponse, error)

// ErrStrayDemand refuses a NeedKnowledge response to a request that carried
// no knowledge delta: an exact frame is always servable, so only a delta may
// be answered with a demand, and only once per sync.
var ErrStrayDemand = errors.New("knowledge demand for a request without a delta")

// Pull runs one directed synchronization in which r, the target, pulls from
// source over carry: it sends its knowledge and filter (a summary when
// summaries are on), retries once with exact knowledge if the source demands
// it, and applies the batch. budget bounds the batch; strictBytes makes its
// byte bound a hard cap. Pull is the only code that builds a target request.
//
// Pull is transactional: on a carrier error or a stray demand it applies
// nothing, counts the sync as aborted, and reports the items that crossed
// before the failure as wasted transfer.
// Carriers are synchronous, so once the last carry returns the request is
// read no more — the summary-mode delta bases on both sides hold copies —
// and Pull releases and reuses it, whatever the outcome (DESIGN §4).
func (r *Replica) Pull(source vclock.ReplicaID, budget Budget, strictBytes bool, carry Carrier) (res SyncResult, err error) {
	var req *SyncRequest
	if r.SummariesEnabled() {
		req = r.MakeSummaryRequest(source, budget.Items)
	} else {
		req = r.MakeSyncRequest(budget.Items)
	}
	req.MaxBytes, req.StrictBytes = budget.Bytes, strictBytes
	res.KnowledgeBytes = req.KnowledgeWireBytes()
	resp, err := carry(req)
	if err == nil && resp.NeedKnowledge && req.Delta != nil {
		// The source could not resolve the delta; the exact retry reuses the
		// first round's routing state and budgets.
		res.Fallback = true
		req = r.MakeFallbackRequest(source, budget.Items, req.Routing)
		req.MaxBytes, req.StrictBytes = budget.Bytes, strictBytes
		res.KnowledgeBytes += req.KnowledgeWireBytes()
		resp, err = carry(req)
	}
	if err == nil && resp.NeedKnowledge {
		resp, err = nil, ErrStrayDemand
	}
	if resp != nil {
		res.Sent, res.SentBytes, res.Truncated = len(resp.Items), BatchBytes(resp), resp.Truncated
	}
	if err != nil {
		r.abortSync(req)
		res.Aborted = true
		return res, err
	}
	res.Apply = r.applyBatch(resp, req)
	return res, nil
}

// Sync performs one in-process synchronization in which target pulls from
// source: the target issues a request, the source assembles the batch, and
// the target applies it. maxItems bounds the batch (0 = unlimited).
func Sync(source, target *Replica, maxItems int) SyncResult {
	res, _ := target.Pull(source.ID(), Budget{Items: maxItems}, false, (&Link{Cutoff: -1}).carry(source))
	return res
}

// EncounterResult summarizes one encounter (two syncs with alternating
// roles).
type EncounterResult struct {
	AtoB SyncResult // b pulls from a
	BtoA SyncResult // a pulls from b
	// Legs counts the pulls EncounterLink issued: 1, or 2 when the first
	// left the second a budget and did not fail.
	Legs int
}

// Encounter models a contact between two replicas as the paper's emulation
// does: two synchronizations with the source and target roles alternating.
// maxItems, when positive, is a shared per-encounter transfer budget: items
// sent in the first sync count against what the second may send.
func Encounter(a, b *Replica, maxItems int) EncounterResult {
	return EncounterLink(a, b, Budget{Items: maxItems}, Link{Cutoff: -1})
}

// secondLeg derives the second synchronization's budget from the encounter
// budget and the first leg's consumption. ok is false when the first leg
// exhausted the shared budget.
func secondLeg(budget Budget, first SyncResult) (second Budget, strict, ok bool) {
	second = budget
	if budget.Items > 0 {
		second.Items = budget.Items - first.Sent
		if second.Items <= 0 {
			return second, false, false
		}
	}
	if budget.Bytes > 0 {
		second.Bytes = budget.Bytes - first.SentBytes
		if second.Bytes <= 0 {
			return second, false, false
		}
		// The remainder is a hard cap: the at-least-one exception applied to
		// the encounter budget already, on the first leg.
		strict = true
	}
	return second, strict, true
}

// Link models the radio contact an encounter runs over. A non-negative
// Cutoff is a disrupted link: it delivers at most that many batch items
// (across both synchronization legs) before dying. A negative Cutoff is a
// reliable link.
type Link struct {
	Cutoff int
}

// errLinkCut is the in-process carrier's failure: the link died mid-batch.
var errLinkCut = errors.New("link cut mid-batch")

// carry returns the in-process carrier to source over l. Each batch that
// crosses spends l's item allowance; a batch larger than what is left dies
// after the allowance, and only those items are handed back, with the error.
// A knowledge demand carries no items, so it costs the link nothing.
func (l *Link) carry(source *Replica) Carrier {
	return func(req *SyncRequest) (*SyncResponse, error) {
		resp := source.HandleSyncRequest(req)
		if l.Cutoff < 0 {
			return resp, nil
		}
		if len(resp.Items) > l.Cutoff {
			return &SyncResponse{Items: resp.Items[:l.Cutoff], Truncated: true}, errLinkCut
		}
		l.Cutoff -= len(resp.Items)
		return resp, nil
	}
}

// EncounterLink runs an encounter under a bandwidth budget shared across
// both syncs (what the first leg consumes, the second may not use) over a
// possibly-disrupted link. When the link dies mid-batch the interrupted
// synchronization aborts transactionally: the target discards the partial
// batch without applying any of it, leaving its knowledge untouched, so the
// next encounter re-offers exactly the versions this one failed to deliver
// and at-most-once delivery is preserved. The remainder of the encounter
// (including the second leg) is skipped — the link is gone.
func EncounterLink(a, b *Replica, budget Budget, link Link) (res EncounterResult) {
	var err error
	res.Legs = 1
	if res.AtoB, err = b.Pull(a.ID(), budget, false, link.carry(a)); err != nil {
		return res
	}
	if second, strict, ok := secondLeg(budget, res.AtoB); ok {
		res.Legs = 2
		res.BtoA, _ = a.Pull(b.ID(), second, strict, link.carry(b))
	}
	return res
}
