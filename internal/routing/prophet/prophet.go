// Package prophet implements PROPHET (Lindgren, Doria, Schelén — Probabilistic
// Routing in Intermittently Connected Networks) as a replication routing
// policy.
//
// Each node maintains a delivery predictability P(self, d) ∈ [0, 1] for every
// destination d it has heard of. Predictabilities increase on direct
// encounters, age down exponentially while nodes stay apart, and propagate
// transitively: meeting a node that meets d often raises our own
// predictability for d. A message is forwarded to a synchronization partner
// only when the partner's predictability for the message's destination
// exceeds our own.
//
// The partner's predictability vector arrives as routing state on the sync
// request (GenerateReq/ProcessReq), exactly as the paper's §V.C.3 describes;
// duplicate suppression comes for free from the substrate's knowledge.
package prophet

import (
	"math"
	"slices"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// Strategy selects the forwarding/queueing variant from the PROPHET
// Internet-Draft. All variants share the GRTR predicate — forward only when
// the partner's delivery predictability exceeds ours — and differ in how
// eligible messages are ordered when bandwidth is scarce.
type Strategy int

const (
	// GRTRSort orders eligible messages by the predictability margin
	// P(B,D) − P(A,D), largest first (the default).
	GRTRSort Strategy = iota
	// GRTR uses no predictability ordering (stable store order).
	GRTR
	// GRTRMax orders eligible messages by the partner's absolute
	// predictability P(B,D), largest first.
	GRTRMax
)

// String renders the strategy name.
func (st Strategy) String() string {
	switch st {
	case GRTR:
		return "GRTR"
	case GRTRMax:
		return "GRTRMax"
	default:
		return "GRTRSort"
	}
}

// Params are the PROPHET protocol constants. The defaults are the paper's
// Table II values.
type Params struct {
	// PInit is the predictability boost applied on a direct encounter.
	PInit float64
	// Beta scales transitive predictability propagation.
	Beta float64
	// Gamma is the per-time-unit aging factor.
	Gamma float64
	// AgingUnit is the length of one aging time unit in seconds.
	AgingUnit int64
	// Strategy selects the queueing variant (default GRTRSort).
	Strategy Strategy
}

// DefaultParams returns the paper's Table II parameters (P_init = 0.75,
// β = 0.25, γ = 0.98) with a 30-second aging unit. The aging granularity is
// fixed by neither paper; 30 seconds makes predictability decay within hours
// of an encounter, which reproduces the selective (non-flooding) forwarding
// the paper observes for PROPHET on DieselNet.
func DefaultParams() Params {
	return Params{PInit: 0.75, Beta: 0.25, Gamma: 0.98, AgingUnit: 30}
}

// Request is the routing state piggybacked on sync requests: the target's
// delivery-predictability vector, keyed by destination address, plus the
// addresses the target identifies as (the endpoints homed on it).
type Request struct {
	// OwnAddresses are the endpoint addresses homed on the requester; the
	// receiver boosts its direct predictability for them.
	OwnAddresses []string
	// Predictability maps destination address → P(requester, destination).
	Predictability sorted.Map[string, float64]
	// aging is the generating policy's aging log and aged its pass count
	// when the request was published; DeltaSince reads the passes between
	// two requests off them. Neither travels: a decoded or reconstructed
	// request is only ever the base of a delta, never its subject.
	aging []float64
	aged  uint64
}

// Policy is the PROPHET policy attached to one replica. The owning replica
// serializes calls; the emulator advances the clock between encounters.
type Policy struct {
	params Params
	now    func() int64
	// ownAddresses are the endpoint addresses homed on this node (kept
	// current by the application as endpoints move).
	ownAddresses []string
	// p maps destination address → delivery predictability (see Vector).
	p sorted.Map[string, float64]
	// lastAged is the time of the most recent aging pass.
	lastAged int64
	// aging holds the factors of the latest aging passes, oldest first, at
	// most maxAgingLog of them; aged counts every pass ever run. Elements are
	// never rewritten — published requests share the array — so trimming
	// copies the tail into a fresh one.
	aging []float64
	aged  uint64
	// partners caches the latest vector received from each sync partner.
	partners partnerCache
	spare    *Request // the last request given back, for GenerateReq to fill
}

// New creates a PROPHET policy. now supplies the current time in seconds
// (simulation or wall clock); ownAddresses are the endpoint addresses homed
// on this node.
func New(params Params, now func() int64, ownAddresses ...string) *Policy {
	if params.AgingUnit <= 0 {
		params.AgingUnit = DefaultParams().AgingUnit
	}
	return &Policy{
		params:       params,
		now:          now,
		ownAddresses: append([]string(nil), ownAddresses...),
		lastAged:     now(),
	}
}

// Name implements routing.Policy.
func (*Policy) Name() string { return "prophet" }

// SetOwnAddresses replaces the endpoint addresses homed on this node.
func (p *Policy) SetOwnAddresses(addrs ...string) {
	p.ownAddresses = append([]string(nil), addrs...)
}

// Predictability returns P(self, dest) after aging.
func (p *Policy) Predictability(dest string) float64 {
	p.age()
	v, _ := p.p.Get(dest)
	return v
}

// Vector publishes the aged predictability vector: the next write copies it.
func (p *Policy) Vector() sorted.Map[string, float64] {
	p.age()
	return p.p.Share()
}

// GenerateReq implements routing.Policy: ship the aged predictability vector
// and our homed addresses, shared (SetOwnAddresses replaces them).
func (p *Policy) GenerateReq() routing.Request {
	vec := p.Vector() // ages first, so the log below covers this vector
	r := p.spare
	if p.spare = nil; r == nil {
		r = new(Request)
	}
	*r = Request{
		OwnAddresses:   p.ownAddresses,
		Predictability: vec,
		aging:          p.aging,
		aged:           p.aged,
	}
	return r
}

// Release implements routing.Releaser: ProcessReq copies a partner's vector.
func (p *Policy) Release(req routing.Request) {
	if r, ok := req.(*Request); ok && r != nil {
		p.p.Release(r.Predictability)
		*r, p.spare = Request{}, r
	}
}

// ProcessReq implements routing.Policy: store the partner's vector for use by
// ToSend and update our own predictabilities — the direct boost for the
// addresses homed on the partner and the transitive update through the
// partner's vector. Because each encounter runs one sync in each direction,
// this fires exactly once per encounter per node.
func (p *Policy) ProcessReq(from vclock.ReplicaID, req routing.Request) {
	r, ok := req.(*Request)
	if !ok || r == nil {
		return
	}
	p.age()
	// Direct encounter boost: P(a,b) += (1 - P(a,b)) * P_init for every
	// address homed on the encountered node. P(a,b) for the transitive
	// update below is the maximum over b's homed addresses.
	pab := 0.0
	for _, addr := range r.OwnAddresses {
		old, _ := p.p.Get(addr)
		v := old + (1-old)*p.params.PInit
		p.p.Set(addr, v)
		pab = max(pab, v)
	}
	// Transitivity: P(a,c) = max(P(a,c), P(a,b) * P(b,c) * beta), where b is
	// the encountered node — one pass over both sorted vectors.
	p.p.Update(r.Predictability, func(dest string, ours, pbc *float64) (float64, bool) {
		v, cur := 0.0, 0.0
		if pbc != nil && !slices.Contains(p.ownAddresses, dest) {
			v = pab * *pbc * p.params.Beta
		}
		if ours != nil {
			cur = *ours
		}
		return max(v, cur), ours != nil || v > cur
	})
	p.partners.store(from, r.Predictability)
}

// partnerCap bounds the partner vector cache. A node roaming an open-ended
// peer population would otherwise accumulate one predictability vector per
// peer ever met (dtnlint unboundedgrowth; the SummaryPeerCap bug class).
// Eviction is insertion-order FIFO — deterministic, and a partner met again
// after eviction is simply re-cached on the next encounter.
const partnerCap = 1024

// partners caches the most recent predictability vector seen from each
// encounter partner, consulted by ToSend.
type partnerCache struct {
	vectors map[vclock.ReplicaID]sorted.Map[string, float64]
	// order tracks first-insertion order for FIFO eviction.
	order []vclock.ReplicaID
}

// store copies vec into id's own array, reused when big enough: the sender
// writes vec again once its request is given back (routing.Releaser).
func (c *partnerCache) store(id vclock.ReplicaID, vec sorted.Map[string, float64]) {
	if c.vectors == nil {
		c.vectors = make(map[vclock.ReplicaID]sorted.Map[string, float64])
	}
	own, known := c.vectors[id]
	if !known {
		c.order = append(c.order, id)
	}
	own.Assign(vec)
	c.vectors[id] = own
	c.evictOldest()
}

// evictOldest drops first-inserted partners until the cache is within
// partnerCap.
func (c *partnerCache) evictOldest() {
	for len(c.vectors) > partnerCap && len(c.order) > 0 {
		delete(c.vectors, c.order[0])
		c.order = append(c.order[:0], c.order[1:]...)
	}
}

// ToSend implements routing.Policy: forward a message when the target's
// delivery predictability for any of the message's destinations exceeds ours
// (the GRTR predicate), at the earliest priority among those destinations.
func (p *Policy) ToSend(e *store.Entry, target routing.Target) (routing.Priority, item.Transient) {
	vec, ok := p.partners.vectors[target.ID]
	if !ok {
		return routing.Skip, item.Transient{}
	}
	p.age()
	best := routing.Skip
	for _, dest := range e.Item.Meta.Destinations {
		theirs, known := vec.Get(dest)
		if !known {
			continue // theirs is 0, and ours is never below it
		}
		if ours, _ := p.p.Get(dest); theirs > ours {
			if pr := p.priority(theirs, ours); pr.Before(best) {
				best = pr
			}
		}
	}
	return best, item.Transient{}
}

// Plan implements routing.Planner: one pass over the target's vector and
// ours lists, in address order, the runs of every destination the GRTR
// predicate forwards to it, at its price.
func (p *Policy) Plan(dst []routing.Segment, target routing.Target) []routing.Segment {
	vec, ok := p.partners.vectors[target.ID]
	if !ok {
		return dst
	}
	p.age()
	ours := p.p.Entries()
	for _, th := range vec.Entries() {
		for len(ours) > 0 && ours[0].Key < th.Key {
			ours = ours[1:]
		}
		mine := 0.0
		if len(ours) > 0 && ours[0].Key == th.Key {
			mine = ours[0].Val
		}
		if th.Val > mine {
			dst = append(dst, routing.Segment{Runs: routing.DestRuns, To: th.Key, Priority: p.priority(th.Val, mine)})
		}
	}
	return dst
}

// priority is the queue order of the configured strategy for a destination
// the target predicts theirs and we predict ours; the cost is negated so
// stronger candidates transmit earlier in the class.
func (p *Policy) priority(theirs, ours float64) routing.Priority {
	switch p.params.Strategy {
	case GRTR:
		return routing.Priority{Class: routing.ClassNormal}
	case GRTRMax:
		return routing.Priority{Class: routing.ClassNormal, Cost: -theirs}
	default: // GRTRSort
		return routing.Priority{Class: routing.ClassNormal, Cost: -(theirs - ours)}
	}
}

// age applies exponential decay for the elapsed whole aging units:
// P = P * gamma^k — in place, unless the vector is published.
func (p *Policy) age() {
	now := p.now()
	elapsed := now - p.lastAged
	if elapsed < p.params.AgingUnit {
		return
	}
	k := elapsed / p.params.AgingUnit
	factor := math.Pow(p.params.Gamma, float64(k))
	p.p.Update(sorted.Map[string, float64]{}, func(_ string, v, _ *float64) (float64, bool) { return decay(*v, factor) })
	p.lastAged += k * p.params.AgingUnit
	if len(p.aging) >= maxAgingLog {
		p.aging = append(make([]float64, 0, maxAgingLog), p.aging[maxAgingLog/2:]...)
	}
	p.aging = append(p.aging, factor)
	p.aged++
}

// maxAgingLog bounds the aging log, and with it the factors a delta may
// carry. A pair whose sender aged more often than this between two of their
// encounters ships the full vector once.
const maxAgingLog = 64

// decay is one aging pass over one predictability: the product, and whether
// the entry survives (values below 1e-9 are dropped). age and the delta
// replay share it, so both sides of a delta run the same arithmetic.
func decay(v, factor float64) (float64, bool) {
	nv := v * factor
	return nv, !(nv < 1e-9)
}
