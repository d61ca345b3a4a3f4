// Package twohop implements the classic two-hop relay scheme (Grossglauser &
// Tse): the source hands copies of its own messages to any node it meets,
// but relays never forward further — a message travels source → relay →
// destination at most. Two-hop relaying is the canonical minimal-overhead
// baseline between direct delivery (the basic substrate) and full epidemic
// flooding, and slots into the same policy interface as the paper's four
// protocols.
package twohop

import (
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// Policy is the two-hop relay policy. The zero value is ready to use.
type Policy struct{}

// New returns a two-hop relay policy.
func New() *Policy { return &Policy{} }

// Name implements routing.Policy.
func (*Policy) Name() string { return "twohop" }

// GenerateReq implements routing.Policy; two-hop relaying needs no routing
// state.
func (*Policy) GenerateReq() routing.Request { return nil }

// ProcessReq implements routing.Policy.
func (*Policy) ProcessReq(vclock.ReplicaID, routing.Request) {}

// ToSend implements routing.Policy: only locally created messages are handed
// to relays; everything a node merely carries waits for the destination
// (which the substrate serves via the filter class).
func (*Policy) ToSend(e *store.Entry, _ routing.Target) (routing.Priority, item.Transient) {
	if !e.Local {
		return routing.Skip, item.Transient{}
	}
	return forward.Priority, item.Transient{}
}

// forward is two-hop relaying's plan: the main runs, every copy at one price.
var forward = routing.Segment{Priority: routing.Priority{Class: routing.ClassNormal}}

// Plan implements routing.Planner.
func (*Policy) Plan(dst []routing.Segment, _ routing.Target) []routing.Segment {
	return append(dst, forward)
}

// DestinationOnly implements routing.DestinationOnly: a relayed copy waits.
func (*Policy) DestinationOnly(e *store.Entry) bool { return !e.Local }
