// Package spraywait implements Spray and Wait (Spyropoulos et al., WDTN
// 2005) as a replication routing policy: binary spraying of a fixed copy
// allowance.
//
// Each message enters the network with a fixed number of logical copies. A
// node holding two or more copies transfers half of them to every node it
// synchronizes with (the "spray" phase, distributing copies along a binary
// tree rooted at the source); a node holding a single copy only delivers
// directly to the destination (the "wait" phase). The remaining-copies count
// is host-specific transient metadata: halving it on both sides never creates
// a new item version, so the adjusted item is not re-sent as an update — the
// paper's §V.C.2 mechanism.
package spraywait

import (
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// DefaultCopies is the paper's Table II per-message copy allowance.
const DefaultCopies = 8

// Policy is the Spray and Wait policy. Create one per replica with New.
type Policy struct {
	initialCopies int
}

// New returns a Spray and Wait policy with the given initial copy allowance;
// copies <= 0 selects DefaultCopies.
func New(copies int) *Policy {
	if copies <= 0 {
		copies = DefaultCopies
	}
	return &Policy{initialCopies: copies}
}

// Name implements routing.Policy.
func (*Policy) Name() string { return "spraywait" }

// GenerateReq implements routing.Policy; Spray and Wait piggybacks nothing —
// the substrate's knowledge replaces the protocol's message-ID handshake.
func (*Policy) GenerateReq() routing.Request { return nil }

// ProcessReq implements routing.Policy; Spray and Wait keeps no routing
// state.
func (*Policy) ProcessReq(vclock.ReplicaID, routing.Request) {}

// ToSend implements routing.Policy: forward an item only while this replica
// holds at least two copies, halving the allowance on both the transmitted
// and the locally stored copy. The allowance is read once: the serve walk
// calls this for every candidate.
func (p *Policy) ToSend(e *store.Entry, _ routing.Target) (routing.Priority, item.Transient) {
	copies, ok := e.Transient.Get(item.FieldCopies)
	if !ok {
		copies = p.initialCopies
		e.Transient.Set(item.FieldCopies, copies)
	}
	if copies < 2 {
		return routing.Skip, item.Transient{}
	}
	half := copies / 2
	e.Transient.Set(item.FieldCopies, copies-half)
	out := e.Transient
	out.Set(item.FieldCopies, half)
	return routing.Priority{Class: routing.ClassNormal}, out
}

// DestinationOnly implements routing.DestinationOnly: a last copy waits.
func (*Policy) DestinationOnly(e *store.Entry) bool {
	copies, ok := e.Transient.Get(item.FieldCopies)
	return ok && copies < 2
}
