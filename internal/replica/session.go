package replica

// Budget bounds one synchronization or encounter: a maximum item count
// and/or a maximum payload volume (zero fields mean unlimited).
type Budget struct {
	Items int
	Bytes int64
}

// unlimited reports whether the budget imposes no bound at all.
func (b Budget) unlimited() bool { return b.Items <= 0 && b.Bytes <= 0 }

// SyncResult summarizes one directed synchronization.
type SyncResult struct {
	Sent      int
	SentBytes int64
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

// makeRequest builds the sync request for one directed in-process sync,
// choosing summary mode when the target has it enabled.
func makeRequest(source, target *Replica, budget Budget, strictBytes bool) *SyncRequest {
	var req *SyncRequest
	if target.SummariesEnabled() {
		req = target.MakeSummaryRequest(source.ID(), budget.Items)
	} else {
		req = target.MakeSyncRequest(budget.Items)
	}
	req.MaxBytes = budget.Bytes
	req.StrictBytes = strictBytes
	return req
}

// fallbackRequest builds the exact-knowledge retry after a NeedKnowledge
// response, reusing the first round's routing state and budgets.
func fallbackRequest(source, target *Replica, first *SyncRequest) *SyncRequest {
	req := target.MakeFallbackRequest(source.ID(), first.MaxItems, first.Routing)
	req.MaxBytes = first.MaxBytes
	req.StrictBytes = first.StrictBytes
	return req
}

// Sync performs one in-process synchronization in which target pulls from
// source: the target issues a request, the source assembles the batch, and
// the target applies it. maxItems bounds the batch (0 = unlimited).
func Sync(source, target *Replica, maxItems int) SyncResult {
	return SyncBudget(source, target, Budget{Items: maxItems})
}

// SyncBudget is Sync with a full bandwidth budget (items and/or bytes).
func SyncBudget(source, target *Replica, budget Budget) SyncResult {
	return syncBudget(source, target, budget, false)
}

func syncBudget(source, target *Replica, budget Budget, strictBytes bool) SyncResult {
	req := makeRequest(source, target, budget, strictBytes)
	kbytes := req.KnowledgeWireBytes()
	resp := source.HandleSyncRequest(req)
	fallback := false
	if resp.NeedKnowledge {
		// The source could not serve the summary exactly; retry once with
		// exact knowledge. The retry cannot be refused.
		fallback = true
		req = fallbackRequest(source, target, req)
		kbytes += req.KnowledgeWireBytes()
		resp = source.HandleSyncRequest(req)
	}
	apply := target.ApplyBatch(resp)
	return SyncResult{
		Sent:           len(resp.Items),
		SentBytes:      BatchBytes(resp),
		Truncated:      resp.Truncated,
		KnowledgeBytes: kbytes,
		Fallback:       fallback,
		Apply:          apply,
	}
}

// EncounterResult summarizes one encounter (two syncs with alternating
// roles).
type EncounterResult struct {
	AtoB SyncResult // b pulls from a
	BtoA SyncResult // a pulls from b
}

// Encounter models a contact between two replicas as the paper's emulation
// does: two synchronizations with the source and target roles alternating.
// maxItems, when positive, is a shared per-encounter transfer budget: items
// sent in the first sync count against what the second may send.
func Encounter(a, b *Replica, maxItems int) EncounterResult {
	return EncounterBudget(a, b, Budget{Items: maxItems})
}

// EncounterBudget is Encounter with a full bandwidth budget shared across
// both syncs: items and bytes consumed by the first leg reduce what the
// second may use.
func EncounterBudget(a, b *Replica, budget Budget) EncounterResult {
	var res EncounterResult
	res.AtoB = SyncBudget(a, b, budget)
	if budget.unlimited() {
		res.BtoA = SyncBudget(b, a, budget)
		return res
	}
	second, strict, ok := secondLeg(budget, res.AtoB)
	if !ok {
		return res
	}
	res.BtoA = syncBudget(b, a, second, strict)
	return res
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
// reliable link — EncounterLink over a reliable link is exactly
// EncounterBudget.
type Link struct {
	Cutoff int
}

// ReliableLink returns a link that never fails.
func ReliableLink() Link { return Link{Cutoff: -1} }

// EncounterLink is EncounterBudget over a possibly-disrupted link. When the
// link dies mid-batch the interrupted synchronization aborts transactionally:
// the target discards the partial batch without applying any of it, leaving
// its knowledge untouched, so the next encounter re-offers exactly the
// versions this one failed to deliver and at-most-once delivery is
// preserved. The remainder of the encounter (including the second leg) is
// skipped — the link is gone.
func EncounterLink(a, b *Replica, budget Budget, link Link) EncounterResult {
	if link.Cutoff < 0 {
		return EncounterBudget(a, b, budget)
	}
	var res EncounterResult
	var ok bool
	res.AtoB, ok = syncLink(a, b, budget, false, &link)
	if !ok {
		return res
	}
	if budget.unlimited() {
		res.BtoA, _ = syncLink(b, a, budget, false, &link)
		return res
	}
	second, strict, open := secondLeg(budget, res.AtoB)
	if !open {
		return res
	}
	res.BtoA, _ = syncLink(b, a, second, strict, &link)
	return res
}

// syncLink performs one directed synchronization over a disrupted link,
// consuming the link's remaining item allowance. ok is false when the link
// died mid-batch: the sync was aborted and nothing was applied.
func syncLink(source, target *Replica, budget Budget, strictBytes bool, link *Link) (SyncResult, bool) {
	req := makeRequest(source, target, budget, strictBytes)
	kbytes := req.KnowledgeWireBytes()
	resp := source.HandleSyncRequest(req)
	fallback := false
	if resp.NeedKnowledge {
		// The fallback round exchanges knowledge frames only — no batch
		// items cross — so it does not consume the link's item allowance.
		fallback = true
		req = fallbackRequest(source, target, req)
		kbytes += req.KnowledgeWireBytes()
		resp = source.HandleSyncRequest(req)
	}
	if len(resp.Items) > link.Cutoff {
		// The link died after link.Cutoff items had crossed. The target never
		// received a complete batch, so it applies nothing: a partial apply
		// would fold partial knowledge and break resume-correctness.
		crossed := resp.Items[:link.Cutoff]
		target.AbortSync()
		var wasted int64
		for i := range crossed {
			wasted += itemWireBytes(crossed[i].Item)
		}
		return SyncResult{
			Sent:           len(crossed),
			SentBytes:      wasted,
			Truncated:      true,
			Aborted:        true,
			KnowledgeBytes: kbytes,
			Fallback:       fallback,
		}, false
	}
	link.Cutoff -= len(resp.Items)
	apply := target.ApplyBatch(resp)
	return SyncResult{
		Sent:           len(resp.Items),
		SentBytes:      BatchBytes(resp),
		Truncated:      resp.Truncated,
		KnowledgeBytes: kbytes,
		Fallback:       fallback,
		Apply:          apply,
	}, true
}
