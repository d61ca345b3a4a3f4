// Package routing defines the pluggable DTN routing-policy interface that
// extends the replication substrate with multi-hop forwarding, following the
// paper's IDTNPolicy design (Fig. 3): a policy contributes routing state to
// outgoing synchronization requests (GenerateReq), digests the state carried
// by incoming requests (ProcessReq), and decides — per stored item — whether
// and with what priority to forward items that do not match the
// synchronization target's filter (ToSend).
package routing

import (
	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// Class is the coarse priority band of a batch item. Higher classes are
// transmitted earlier. ClassFilter is reserved for items that match the
// target's filter — messages addressed directly to the sync partner always
// go first.
type Class int

// Priority classes, lowest to highest.
const (
	ClassSkip Class = iota // do not send
	ClassLowest
	ClassLow
	ClassNormal
	ClassHigh
	ClassHighest
	ClassFilter // matches the target's filter; reserved for the substrate
)

var classNames = map[Class]string{
	ClassSkip:    "skip",
	ClassLowest:  "lowest",
	ClassLow:     "low",
	ClassNormal:  "normal",
	ClassHigh:    "high",
	ClassHighest: "highest",
	ClassFilter:  "filter",
}

// String renders the class name.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "unknown"
}

// Priority orders items within a synchronization batch: by Class, highest
// first, then by Cost, lowest first, as the paper's priority model specifies
// ("a class value ranging from lowest to highest, and a real-valued cost to
// break ties inside a class").
type Priority struct {
	Class Class
	Cost  float64
}

// Skip is the priority returned by ToSend to exclude an item from the batch.
var Skip = Priority{Class: ClassSkip}

// Before reports whether p should be transmitted before q.
func (p Priority) Before(q Priority) bool {
	if p.Class != q.Class {
		return p.Class > q.Class
	}
	return p.Cost < q.Cost
}

// Target describes the synchronization target (the replica that issued the
// request) to a forwarding decision.
type Target struct {
	ID     vclock.ReplicaID
	Filter filter.Filter
}

// Request is opaque, policy-specific routing state piggybacked on a
// synchronization request — e.g. PROPHET's delivery-predictability vector or
// MaxProp's meeting-probability table. A nil Request is valid and means the
// policy has nothing to say.
//
// Everything reachable from a Request is immutable once GenerateReq returns,
// and the receiver never writes through it. That holds however the request
// travels — handed over by pointer in the emulator (possibly to a policy
// running on another goroutine), decoded into fresh values off TCP,
// replayed for a sync's fallback round, or rebuilt from a delta against the
// previous request (DeltaRequest). A request holds until its sync is over:
// the replica then hands it back to a Releaser, whose state it shares, so
// whatever outlives the sync — a policy's table, a replica's delta base —
// copies what it keeps of a Releaser's request, sharing only what nobody
// writes (MaxProp's rows).
type Request any

// DeltaRequest is what a policy's request type implements, beside its codec,
// to opt in to routing-state deltas: a recurring pair in summary mode then
// ships each request as its difference from the one this policy last
// published to that peer, on the tags of the knowledge delta it rides with
// (DESIGN.md §12). The contract is exactness, not approximation — for any
// non-nil d := cur.DeltaSince(base), d.Apply(base, dst) encodes
// byte-for-byte like cur — so the receiving policy cannot tell which form
// travelled. A policy whose request type implements it keeps no reference
// into a request in ProcessReq: the replica that handed it over rewrites
// the request's storage at its next sync. Requests that do not implement it
// always travel whole.
type DeltaRequest interface {
	// DeltaSince returns this request as a delta against base, an earlier
	// request of the same policy, or nil when it cannot form one (a base of
	// another type, state the delta form cannot express); the full request
	// travels then. Neither request is written.
	DeltaSince(base Request) Delta
	// CopyInto returns a copy of this request for a holder that keeps it —
	// the replica's per-peer delta bases — sharing nothing its sender goes
	// on writing. It is built in kept's storage, reused, when kept is an
	// earlier copy of the same type that nothing reads any more (nil: none).
	CopyInto(kept Request) Request
	// WireSize returns the length of the request's full encoding.
	WireSize() int
}

// Delta is a routing request encoded against an earlier one.
type Delta interface {
	// Apply reconstructs the request the delta was taken from, given the
	// base it was taken against, in dst's storage: dst is a request nothing
	// reads any more (nil: none), reused when it is of base's type, and
	// shares no storage with base. It writes nothing of base's, and the
	// result shares with base only what nobody writes. An error means the
	// delta does not fit this base; dst is then garbage, and the caller
	// keeps the base and asks for the full request.
	Apply(base, dst Request) (Request, error)
	// WireSize returns the length of the delta's encoding.
	WireSize() int
}

// Policy is a pluggable DTN forwarding policy attached to one replica. The
// substrate invokes it at the three points of the extended sync protocol
// (paper Fig. 4). Implementations may keep per-replica persistent state; the
// owning replica serializes calls, so implementations need no internal
// locking unless shared across replicas.
type Policy interface {
	// Name identifies the policy (e.g. "epidemic").
	Name() string
	// GenerateReq is called when this replica initiates a synchronization
	// (acts as target); its return value travels in the request and is
	// immutable from then on (see Request): state the policy goes on
	// mutating in place must be copied into it or shared copy-on-write,
	// state it only ever replaces may be shared. The replica hands it back
	// to a Releaser once its sync is over, in either request mode; in
	// summary mode it first keeps a copy as the base of the peer's next
	// delta (DeltaRequest.CopyInto).
	GenerateReq() Request
	// ProcessReq is called when this replica receives a synchronization
	// request (acts as source), with the requesting replica's ID and the
	// routing state it sent. Policies typically fold the state into their
	// local tables here. It fires once per sync that runs: a first leg that
	// spends an encounter's shared budget leaves the second unrequested
	// (ROADMAP item 1: 29 % of Fig. 9's encounters). It never writes
	// through req. It may keep references into req only if the policy is
	// neither a Releaser nor a DeltaRequest's: in summary mode req may be
	// the replica's own delta base, rewritten at the peer's next sync.
	ProcessReq(from vclock.ReplicaID, req Request)
	// ToSend decides whether to forward a stored item that does NOT match
	// the target's filter, returning its transmission priority (Skip to
	// withhold) and the transient metadata to attach to the transmitted
	// copy; returning the zero Transient (no field present) transmits the
	// stored one. ToSend may mutate the entry's stored transient state (e.g.
	// halve a copy allowance) — such mutations never create new item
	// versions — but never e.Item, which is immutable and may be stored at
	// other replicas too. Transient is a value, so the returned one is the
	// batch's own whatever it was copied from: the receiver stores it and
	// counts the hop in it, and nothing reaches back into e. The serve walk
	// asks ToSend about the candidates it reaches (Planner).
	ToSend(e *store.Entry, target Target) (Priority, item.Transient)
}

// Segment is one step of a serve's plan (DESIGN §4): a run set the serve
// walks above the target's knowledge, and the price of what it offers there
// for the policy. An entry is offered in the first segment that files it.
type Segment struct {
	Runs Runs
	To   string // the destination of DestRuns
	// In a destination's runs an entry is offered at Priority without asking
	// ToSend, which would write nothing and give Priority and the zero
	// Transient. Elsewhere ToSend is asked; a Priority other than Skip is
	// what it gives every entry it does not skip.
	Priority Priority
	// Bound, if set, reads only e's stored fields, and ToSend neither skips
	// e nor transmits it before Bound(e): a budgeted serve counts an entry
	// the full batch turns away at its bound as refused, without ToSend.
	Bound func(e *store.Entry) Priority
}

// Runs names a segment's run set.
type Runs uint8

const (
	MainRuns    Runs = iota // of the entries not filed under their destinations alone
	DestRuns                // of the entries filed under Segment.To
	AllDestRuns             // every destination's, each entry filed there alone once
)

// Planner is optionally implemented by policies that tell a budgeted serve
// where their candidates are and what they cost, so it stops once its batch
// is decided. Plan appends the segments a serve to t walks, each
// destination once and the main runs last, and writes no entry; the serve
// walks destinations best first. Whether a plan walks the main runs, and at
// a fixed price, does not depend on t: once a budget is smaller than the
// store, the store files entries under their destinations, alone for a
// plan without main runs, too for one that prices them (DESIGN §4).
type Planner interface {
	Plan(dst []Segment, t Target) []Segment
}

// DestinationOnly is optionally implemented by policies whose ToSend
// withholds some entries from every target for good; the store files them
// under their destinations (store.Store.DestinationOnly).
type DestinationOnly interface {
	// DestinationOnly reports whether ToSend returns Skip for e, without
	// writing it, from now on. It reads only e's stored fields.
	DestinationOnly(e *store.Entry) bool
}

// Releaser is optionally implemented by policies whose requests share state
// copy-on-write and whose ProcessReq, the one that reads their requests,
// keeps no reference into one. Release(req) says that req, from this
// policy's GenerateReq, is read no more: what it shares may be written in
// place again, and req refilled by a later GenerateReq (DESIGN §4).
type Releaser interface {
	Release(req Request)
}

// Persistent is implemented by policies that keep durable routing state —
// the paper's requirement that "DTN routing policies can define persistent
// data structures which are serialized to disk and retrieved whenever a
// synchronization operation is invoked". Stateless policies (Epidemic, Spray
// and Wait — whose state lives in per-item transients) need not implement
// it.
type Persistent interface {
	// SnapshotState serializes the policy's routing state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the policy's routing state from a snapshot.
	RestoreState(data []byte) error
}
