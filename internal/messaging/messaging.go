// Package messaging implements the paper's DTN messaging application on top
// of the replication substrate — "one of the simplest applications one could
// imagine building on such a replication platform" (§IV.A).
//
// A message is a replicated item carrying a destination-address metadata
// attribute; a host's filter selects the messages addressed to it. Sending a
// message is inserting an item into the sender's replica; eventual filter
// consistency then guarantees delivery to every host whose filter matches,
// and knowledge exchange guarantees each host receives it at most once. A
// recipient may delete a processed message, and the tombstone's propagation
// discards the copies held by forwarding nodes without any special
// acknowledgement machinery.
package messaging

import (
	"bytes"
	"fmt"
	"sync"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// KindMessage is the item kind used for DTN messages.
const KindMessage = "dtn/message"

// Message is the application-level view of a delivered or sent message.
type Message struct {
	// ID is the replicated item's ID, unique network-wide.
	ID item.ID
	// From is the sender's endpoint address.
	From string
	// To lists the recipient endpoint addresses.
	To []string
	// SentAt is the send time in seconds (simulation or Unix time).
	SentAt int64
	// Body is the message payload.
	Body []byte
}

// Received pairs a delivered message with its receiving endpoint address.
type Received struct {
	Message Message
	// At is the local address the message was delivered to.
	At string
}

// Endpoint is a messaging endpoint bound to one replica (one device). It
// tracks the endpoint addresses homed on the device, translates messages to
// and from replicated items, and deduplicates deliveries so the application
// sees each message exactly once even across address reassignment.
type Endpoint struct {
	mu        sync.Mutex
	replica   *replica.Replica
	addresses []string
	inbox     []Received
	// seen/seenPrev form a two-generation dedup set: lookups consult both,
	// inserts go to seen, and when seen reaches seenCap the generations
	// rotate (seenPrev is dropped wholesale). Memory is bounded by
	// 2×seenCap entries while the most recent seenCap deliveries always
	// dedup exactly — the bounded replacement for the unbounded map the
	// dtnlint unboundedgrowth analyzer flagged (SummaryPeerCap bug class).
	seen      map[item.ID]struct{}
	seenPrev  map[item.ID]struct{}
	seenCap   int
	onReceive func(Received)
	now       func() int64
}

// DefaultSeenCap is the per-generation size of the delivery dedup set. An
// endpoint remembers at least this many of its most recent deliveries (and
// at most twice as many); a message re-delivered across address epochs
// after that horizon would be surfaced to the application again.
const DefaultSeenCap = 1 << 16

// Config configures a messaging endpoint.
type Config struct {
	// NodeID is the replica/device identifier.
	NodeID vclock.ReplicaID
	// Addresses are the endpoint addresses initially homed on this device.
	Addresses []string
	// ExtraFilterAddresses are additional addresses the device volunteers to
	// carry messages for (the paper's §IV.B multi-address filters).
	ExtraFilterAddresses []string
	// Policy is the optional DTN routing policy.
	Policy routing.Policy
	// RelayCapacity bounds relayed messages (<= 0 unlimited).
	RelayCapacity int
	// Eviction orders relayed messages for eviction under storage pressure;
	// nil selects FIFO.
	Eviction store.EvictionStrategy
	// OnReceive, when set, is called for every first-time delivery.
	OnReceive func(Received)
	// OnCopies, when set, observes live-copy transitions in the backing
	// replica's store (see replica.Config.OnCopies). Called with the replica
	// lock held.
	OnCopies func(id item.ID, delta int)
	// Now supplies time in seconds; defaults to a zero clock (useful only
	// for tests — emulations always supply the simulation clock).
	Now func() int64
	// SyncSummaries enables the compact knowledge summary protocol (delta
	// knowledge for recurring peers) on the backing replica; see
	// replica.Config.SyncSummaries.
	SyncSummaries bool
	// SeenCap bounds the delivery dedup set per generation; 0 selects
	// DefaultSeenCap. Deliveries older than two generations may be
	// surfaced again if the item recurs across an address epoch.
	SeenCap int
}

// NewEndpoint creates a messaging endpoint and its backing replica.
func NewEndpoint(cfg Config) *Endpoint {
	ep := &Endpoint{
		addresses: append([]string(nil), cfg.Addresses...),
		seen:      make(map[item.ID]struct{}),
		seenCap:   cfg.SeenCap,
		onReceive: cfg.OnReceive,
		now:       cfg.Now,
	}
	if ep.seenCap <= 0 {
		ep.seenCap = DefaultSeenCap
	}
	if ep.now == nil {
		ep.now = func() int64 { return 0 }
	}
	filterAddrs := append(append([]string(nil), cfg.Addresses...), cfg.ExtraFilterAddresses...)
	ep.replica = replica.New(replica.Config{
		ID:            cfg.NodeID,
		OwnAddresses:  cfg.Addresses,
		Filter:        filter.NewAddresses(filterAddrs...),
		RelayCapacity: cfg.RelayCapacity,
		Eviction:      cfg.Eviction,
		Policy:        cfg.Policy,
		OnDeliver:     ep.deliver,
		OnCopies:      cfg.OnCopies,
		Now:           ep.now,
		SyncSummaries: cfg.SyncSummaries,
	})
	return ep
}

// Replica exposes the endpoint's backing replica for synchronization.
func (ep *Endpoint) Replica() *replica.Replica { return ep.replica }

// Addresses returns the endpoint addresses currently homed on this device.
func (ep *Endpoint) Addresses() []string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return append([]string(nil), ep.addresses...)
}

// Send creates and injects a message from the given local address. The
// endpoint keeps copies of to and body, so the caller may reuse both; the
// returned Message describes what was sent and holds the caller's own slices.
func (ep *Endpoint) Send(from string, to []string, body []byte) (Message, error) {
	return ep.send(from, to, body, 0)
}

// SendExpiring creates a message with a bounded lifetime: after lifetime
// seconds the message stops being forwarded or delivered and relays purge it.
func (ep *Endpoint) SendExpiring(from string, to []string, body []byte, lifetime int64) (Message, error) {
	if lifetime <= 0 {
		return Message{}, fmt.Errorf("messaging: lifetime must be positive")
	}
	return ep.send(from, to, body, ep.now()+lifetime)
}

func (ep *Endpoint) send(from string, to []string, body []byte, expires int64) (Message, error) {
	if len(to) == 0 {
		return Message{}, fmt.Errorf("messaging: message needs at least one recipient")
	}
	meta := item.Metadata{
		Source:       from,
		Destinations: append([]string(nil), to...),
		Kind:         KindMessage,
		Created:      ep.now(),
		Expires:      expires,
	}
	// The replica stores what it is given, and a stored item is never written
	// again (package item) — so the stored message gets its own copies of the
	// recipient list and the body here, at the boundary, and the caller gets
	// its own slices back rather than a second copy.
	it := ep.replica.CreateItem(meta, bytes.Clone(body))
	return Message{ID: it.ID, From: from, To: to, SentAt: meta.Created, Body: body}, nil
}

// PurgeExpired drops expired relayed messages from the local store.
func (ep *Endpoint) PurgeExpired() int { return ep.replica.PurgeExpired() }

// Rehome changes the endpoint addresses homed on this device (e.g. users
// boarding a different bus) and rebuilds the filter as own ∪ extra addresses.
// Messages already held for a newly homed address are delivered immediately.
func (ep *Endpoint) Rehome(addresses, extraFilterAddresses []string) {
	ep.mu.Lock()
	ep.addresses = append(ep.addresses[:0], addresses...)
	ep.mu.Unlock()
	filterAddrs := append(append([]string(nil), addresses...), extraFilterAddresses...)
	// SetIdentity triggers delivery callbacks for newly matching items.
	ep.replica.SetIdentity(addresses, filter.NewAddresses(filterAddrs...))
	type addressed interface{ SetOwnAddresses(...string) }
	if p, ok := ep.replica.Policy().(addressed); ok {
		p.SetOwnAddresses(addresses...)
	}
}

// Inbox returns the messages delivered so far, in delivery order. The
// buffer keeps accumulating; long-running applications should prefer
// TakeInbox (or OnReceive) to keep memory bounded.
func (ep *Endpoint) Inbox() []Received {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return append([]Received(nil), ep.inbox...)
}

// TakeInbox drains the inbox: it returns the messages delivered since the
// last drain, in delivery order, and releases them. This is the
// bounded-memory consumption API for long-running endpoints.
func (ep *Endpoint) TakeInbox() []Received {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := ep.inbox
	ep.inbox = nil
	return out
}

// Ack deletes a received message from the local replica; the tombstone
// replicates outward and clears forwarders' copies.
func (ep *Endpoint) Ack(id item.ID) error {
	_, err := ep.replica.DeleteItem(id)
	return err
}

// deliver is the replica's delivery callback. The replica guarantees it fires
// at most once per (item, address-epoch); the seen set collapses repeats
// across epochs so the application sees each message exactly once.
func (ep *Endpoint) deliver(it *item.Item) {
	ep.mu.Lock()
	if _, dup := ep.seen[it.ID]; dup {
		ep.mu.Unlock()
		return
	}
	if _, dup := ep.seenPrev[it.ID]; dup {
		ep.mu.Unlock()
		return
	}
	ep.seen[it.ID] = struct{}{}
	if len(ep.seen) >= ep.seenCap {
		// Rotate generations: the previous generation is dropped wholesale,
		// bounding the dedup set at 2×seenCap entries.
		ep.seenPrev = ep.seen
		ep.seen = make(map[item.ID]struct{}, ep.seenCap)
	}
	at := ""
	for _, d := range it.Meta.Destinations {
		for _, a := range ep.addresses {
			if d == a {
				at = a
				break
			}
		}
		if at != "" {
			break
		}
	}
	rcv := Received{Message: toMessage(it), At: at}
	ep.inbox = append(ep.inbox, rcv)
	cb := ep.onReceive
	ep.mu.Unlock()
	if cb != nil {
		cb(rcv)
	}
}

func toMessage(it *item.Item) Message {
	return Message{
		ID:     it.ID,
		From:   it.Meta.Source,
		To:     append([]string(nil), it.Meta.Destinations...),
		SentAt: it.Meta.Created,
		Body:   append([]byte(nil), it.Payload...),
	}
}
