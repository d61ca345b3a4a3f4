// Package epidemic implements Epidemic routing (Vahdat & Becker, 2000) as a
// replication routing policy: TTL-limited flooding.
//
// Every stored item is forwarded during every synchronization until its hop
// budget (TTL) is exhausted. The original protocol's summary-vector exchange
// for duplicate suppression is unnecessary here — the replication substrate's
// knowledge already guarantees each item is delivered at most once to each
// host, exactly as the paper observes.
package epidemic

import (
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// DefaultTTL is the paper's Table II hop budget.
const DefaultTTL = 10

// Policy is the Epidemic routing policy. Create one per replica with New.
type Policy struct {
	initialTTL int
}

// New returns an Epidemic policy with the given initial TTL; ttl <= 0 selects
// DefaultTTL.
func New(ttl int) *Policy {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Policy{initialTTL: ttl}
}

// Name implements routing.Policy.
func (*Policy) Name() string { return "epidemic" }

// GenerateReq implements routing.Policy; Epidemic piggybacks nothing.
func (*Policy) GenerateReq() routing.Request { return nil }

// ProcessReq implements routing.Policy; Epidemic keeps no routing state.
func (*Policy) ProcessReq(vclock.ReplicaID, routing.Request) {}

// ToSend implements routing.Policy: select every item whose TTL is positive,
// transmitting a copy whose TTL is decremented by one. New locally created
// items without a TTL field are stamped with the initial hop budget first.
// Only the in-flight copy's TTL drops; the stored copy keeps its value, as
// §V.C.1 of the paper specifies.
func (p *Policy) ToSend(e *store.Entry, target routing.Target) (routing.Priority, item.Transient) {
	pr := p.Decide(e, target)
	if pr.Class == routing.ClassSkip {
		return pr, item.Transient{}
	}
	return pr, p.Materialize(e, target)
}

// Decide implements routing.SplitSender: the forwarding decision half of
// ToSend, including its TTL-stamping side effect — the one write on the
// decision path, and only the first time a copy is considered. The TTL is
// read once: the serve walk calls this for every candidate.
func (p *Policy) Decide(e *store.Entry, _ routing.Target) routing.Priority {
	ttl, ok := e.Transient.Get(item.FieldTTL)
	if !ok {
		ttl = p.initialTTL
		e.Transient.Set(item.FieldTTL, ttl)
	}
	if ttl <= 0 {
		return routing.Skip
	}
	return routing.Priority{Class: routing.ClassNormal}
}

// Materialize implements routing.SplitSender: build the in-flight copy's
// transient — the stored transient with a decremented TTL. Pure; called only
// for items that made the batch.
func (p *Policy) Materialize(e *store.Entry, _ routing.Target) item.Transient {
	out := e.Transient
	ttl, _ := out.Get(item.FieldTTL)
	out.Set(item.FieldTTL, ttl-1)
	return out
}

// DestinationOnly implements routing.DestinationOnly: a spent TTL waits.
func (*Policy) DestinationOnly(e *store.Entry) bool {
	ttl, ok := e.Transient.Get(item.FieldTTL)
	return ok && ttl <= 0
}
