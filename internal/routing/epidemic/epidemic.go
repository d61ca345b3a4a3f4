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
// transmitting a copy whose TTL is decremented by one. A locally created
// item carries no TTL field and reads as the initial hop budget. Only the
// in-flight copy's TTL drops; the stored copy is not written, as §V.C.1 of
// the paper specifies.
func (p *Policy) ToSend(e *store.Entry, _ routing.Target) (routing.Priority, item.Transient) {
	ttl := p.ttl(e)
	if ttl <= 0 {
		return routing.Skip, item.Transient{}
	}
	out := e.Transient
	out.Set(item.FieldTTL, ttl-1)
	return forward.Priority, out
}

// forward is Epidemic's plan: the main runs, every copy at one price.
var forward = routing.Segment{Priority: routing.Priority{Class: routing.ClassNormal}}

// Plan implements routing.Planner.
func (*Policy) Plan(dst []routing.Segment, _ routing.Target) []routing.Segment {
	return append(dst, forward)
}

// DestinationOnly implements routing.DestinationOnly: a spent TTL waits.
func (p *Policy) DestinationOnly(e *store.Entry) bool { return p.ttl(e) <= 0 }

// ttl is e's remaining hop budget.
func (p *Policy) ttl(e *store.Entry) int {
	if ttl, ok := e.Transient.Get(item.FieldTTL); ok {
		return ttl
	}
	return p.initialTTL
}
