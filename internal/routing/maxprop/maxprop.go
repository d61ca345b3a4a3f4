// Package maxprop implements MaxProp (Burgess et al., INFOCOM 2006) as a
// replication routing policy.
//
// Each node maintains a probability distribution over which node it will
// encounter next, built from incremental meeting counts. Nodes exchange these
// distributions (their own row, plus the freshest rows they have learned for
// other nodes) during encounters. For every message a node might forward, it
// scores the lowest-cost path to the message's destination with a modified
// Dijkstra search where the cost of traversing the link (x, y) is the
// probability that the encounter does not occur, 1 − f_x(y); the path score
// is the sum of those costs.
//
// Transmission order during an encounter follows the protocol: messages
// addressed to the neighbor first (the substrate's filter class covers this),
// then messages whose copies have traversed fewer hops than a threshold,
// ordered by hop count, and finally the remaining messages ordered by
// ascending path cost. MaxProp's hoplist duplicate suppression and flooded
// delivery acknowledgements are unnecessary on this substrate: knowledge
// provides exact at-most-once transfer, and deletion tombstones clear
// forwarder buffers.
package maxprop

import (
	"math"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// DefaultHopThreshold is the paper's Table II priority threshold: copies with
// fewer traversed hops are "new" and jump the path-cost queue.
const DefaultHopThreshold = 3

// Row is one node's next-encounter probability distribution together with the
// time it was produced, used for freshest-wins merging. Probabilities is never
// written after the Row is built: policies, requests in flight and decoded
// frames share one map by reference (the routing.Request contract).
type Row struct {
	Probabilities sorted.Map[vclock.ReplicaID, float64]
	Updated       int64
	// size is Probabilities' encoded size, fixed where the policy builds a
	// row (rebuildOwn) and copied with it into every peer's table, so sizing
	// a request walks rows, not cells; 0 (sized by a walk) on a row built
	// elsewhere, a decoded one included.
	size int
}

// Home records where an endpoint address was last known to be homed.
type Home struct {
	Node    vclock.ReplicaID
	Updated int64
}

// Request is the routing state piggybacked on sync requests: the requester's
// homed addresses, its meeting-probability table (its own row plus learned
// rows), and its address-home beliefs. GenerateReq's request shares the
// policy's table and holds its own copy of the homes, with our addresses
// stamped as homed here.
type Request struct {
	OwnAddresses []string
	Table        sorted.Map[vclock.ReplicaID, Row]
	Homes        sorted.Map[string, Home]
}

// Policy is the MaxProp policy attached to one replica.
type Policy struct {
	self         vclock.ReplicaID
	hopThreshold int
	now          func() int64
	ownAddresses []string

	// weights are this node's raw meeting counts; the probability row is
	// weights normalized to sum to 1.
	weights sorted.Map[vclock.ReplicaID, float64]
	// table holds the freshest known probability row per node. Our own row
	// is rebuilt whenever weights change and re-stamped by GenerateReq.
	table sorted.Map[vclock.ReplicaID, Row]
	// homes maps endpoint address → freshest known homing node.
	homes sorted.Map[string, Home]
	// dist is the shortest-path tree from self over table — lowest path cost
	// by table position, +Inf where unreached — built by the first PathCost
	// after table or weights changed; short of the table when stale. Homes do
	// not enter it. hops[i] holds the positions of row i's nodes (-1: no row)
	// while hopsOf[i] is its first entry (rows are never written). They keep
	// their memory across builds, as does open, the search's distances of
	// the nodes it has reached and not settled (+Inf for the others).
	dist   []float64
	open   []float64
	hops   [][]int
	hopsOf []*sorted.Entry[vclock.ReplicaID, float64]
	builds int             // trees built, read by tests
	plan   routing.Segment // every serve's: the main runs, under bound
	spare  *Request        // the last request given back, for GenerateReq to fill
}

// New creates a MaxProp policy for the given replica. hopThreshold <= 0
// selects DefaultHopThreshold; now supplies seconds (simulation or wall
// clock); ownAddresses are the endpoint addresses homed on this node.
func New(self vclock.ReplicaID, hopThreshold int, now func() int64, ownAddresses ...string) *Policy {
	if hopThreshold <= 0 {
		hopThreshold = DefaultHopThreshold
	}
	p := &Policy{
		self:         self,
		hopThreshold: hopThreshold,
		now:          now,
		ownAddresses: append([]string(nil), ownAddresses...),
	}
	p.plan = routing.Segment{Bound: p.bound}
	return p
}

// Name implements routing.Policy.
func (*Policy) Name() string { return "maxprop" }

// SetOwnAddresses replaces the endpoint addresses homed on this node.
func (p *Policy) SetOwnAddresses(addrs ...string) {
	p.ownAddresses = append([]string(nil), addrs...)
}

// OwnRow returns this node's normalized next-encounter distribution. The
// weights are summed in key order, so one set of weights has one row.
func (p *Policy) OwnRow() sorted.Map[vclock.ReplicaID, float64] {
	total := 0.0
	for _, e := range p.weights.Entries() {
		total += e.Val
	}
	if total == 0 {
		return sorted.Map[vclock.ReplicaID, float64]{}
	}
	return sorted.Divide(p.weights, total)
}

// GenerateReq implements routing.Policy: share homed addresses and the full
// freshest-rows table, and copy the address homes, our addresses stamped.
// The copy goes into the array of the request last given back: stamping
// the policy's own homes would move PathCost for our addresses.
func (p *Policy) GenerateReq() routing.Request {
	now := p.now()
	own, _ := p.table.Get(p.self)
	own.Updated = now
	p.table.Set(p.self, own)
	r := p.spare
	if p.spare = nil; r == nil {
		r = new(Request)
	}
	r.OwnAddresses, r.Table = p.ownAddresses, p.table.Share()
	r.Homes.Assign(p.homes)
	for _, a := range p.ownAddresses {
		r.Homes.Set(a, Home{Node: p.self, Updated: now})
	}
	return r
}

// Release implements routing.Releaser: ProcessReq copies entries out of a
// partner's table and homes, sharing only rows, which nobody writes. req is
// the next GenerateReq's, its homes array kept.
func (p *Policy) Release(req routing.Request) {
	if r, ok := req.(*Request); ok && r != nil {
		p.table.Release(r.Table)
		r.OwnAddresses, r.Table, p.spare = nil, sorted.Map[vclock.ReplicaID, Row]{}, r
	}
}

// ProcessReq implements routing.Policy: count the encounter (incrementing the
// partner's meeting weight and re-normalizing, per the protocol), then merge
// the partner's table rows and address homes freshest-first. Fires once per
// sync that runs (see routing.Policy).
func (p *Policy) ProcessReq(from vclock.ReplicaID, req routing.Request) {
	r, ok := req.(*Request)
	if !ok || r == nil {
		return
	}
	now := p.now()
	w, _ := p.weights.Get(from)
	p.weights.Set(from, w+1)
	p.table.Adopt(r.Table, func(row, cur *Row) bool { return row.Updated > cur.Updated })
	p.rebuildOwn(now) // after the merge: nobody else's view of us beats our own
	p.homes.Adopt(r.Homes, func(h, cur *Home) bool { return h.Updated > cur.Updated })
	for _, addr := range r.OwnAddresses {
		p.homes.Set(addr, Home{Node: from, Updated: now})
	}
}

// rebuildOwn replaces our own row with a fresh one normalized from the
// current weights and empties the path tree. It runs wherever weights or the
// table change — never on a decision path.
func (p *Policy) rebuildOwn(updated int64) {
	probs := p.OwnRow()
	p.table.Set(p.self, Row{Probabilities: probs, Updated: updated, size: sizeProbs(probs)})
	p.dist = p.dist[:0]
}

// ToSend implements routing.Policy: MaxProp floods — every item is eligible —
// but the priority encodes the protocol's transmission order. Copies under
// the hop threshold form a high class ordered by hop count; the rest are
// ordered by ascending lowest path cost to the destination.
func (p *Policy) ToSend(e *store.Entry, _ routing.Target) (routing.Priority, item.Transient) {
	hops, _ := e.Transient.Get(item.FieldHops)
	if hops < p.hopThreshold {
		return routing.Priority{Class: routing.ClassHigh, Cost: float64(hops)}, item.Transient{}
	}
	cost := math.Inf(1)
	for _, dest := range e.Item.Meta.Destinations {
		if c := p.PathCost(dest); c < cost {
			cost = c
		}
	}
	return routing.Priority{Class: routing.ClassNormal, Cost: cost}, item.Transient{}
}

// Plan implements routing.Planner.
func (p *Policy) Plan(dst []routing.Segment, _ routing.Target) []routing.Segment {
	return append(dst, p.plan)
}

// bound is the hop class: a copy under the hop threshold gets its ToSend
// priority, any other one {Normal, 0}, since path costs are sums of 1 − f ≥ 0.
func (p *Policy) bound(e *store.Entry) routing.Priority {
	if hops, _ := e.Transient.Get(item.FieldHops); hops < p.hopThreshold {
		return routing.Priority{Class: routing.ClassHigh, Cost: float64(hops)}
	}
	return routing.Priority{Class: routing.ClassNormal}
}

// PathCost returns the lowest-cost path score from this node to the node
// currently homing the destination address: the modified Dijkstra search with
// edge cost 1 − f_x(y). It returns +Inf when the destination's home is
// unknown or unreachable through the learned table. It writes no state that
// SnapshotState serializes.
func (p *Policy) PathCost(destAddr string) float64 {
	home, ok := p.homes.Get(destAddr)
	if !ok {
		return math.Inf(1)
	}
	if home.Node == p.self {
		return 0
	}
	if len(p.dist) != p.table.Len() { // a row was added, or rebuildOwn ran
		p.buildTree()
	}
	rows := p.table.Entries()
	if i, ok := sorted.Search(rows, home.Node); ok {
		return p.dist[i]
	}
	// A node without a row is on no path: its cost is its cheapest last hop.
	cost := math.Inf(1)
	for i, row := range rows {
		if f, _ := row.Val.Probabilities.Get(home.Node); f > 0 {
			cost = min(cost, p.dist[i]+(1-f))
		}
	}
	return cost
}

// buildTree fills dist with the minimum sum of (1 − f_x(y)) over paths from
// self of every node of the table, +Inf for one the table does not reach:
// Dijkstra's search, finding the closest open node by a scan, as tables are
// dense (a row may name every node). Edge costs are never negative (probabilities lie in
// [0, 1]), so a node's settled distance is the cost a search stopping at
// that node would return, and the strict < relaxation means equal-cost paths
// cannot change it.
func (p *Policy) buildTree() {
	rows := p.table.Entries()
	if len(p.hops) != len(rows) { // positions moved
		p.hops, p.hopsOf = make([][]int, len(rows)), make([]*sorted.Entry[vclock.ReplicaID, float64], len(rows))
	}
	p.dist, p.open = p.dist[:0], p.open[:0]
	for range rows {
		p.dist, p.open = append(p.dist, math.Inf(1)), append(p.open, math.Inf(1))
	}
	if s, ok := sorted.Search(rows, p.self); ok {
		p.dist[s], p.open[s] = 0, 0
	}
	for {
		x, best := -1, math.Inf(1)
		for i, d := range p.open {
			if d < best {
				x, best = i, d
			}
		}
		if x < 0 {
			break
		}
		p.open[x] = math.Inf(1)
		row := rows[x].Val.Probabilities.Entries()
		if len(row) > 0 && p.hopsOf[x] != &row[0] { // find the row's nodes, in ascending order
			pos, lo := p.hops[x][:0], 0
			for _, e := range row {
				j, ok := sorted.Search(rows[lo:], e.Key)
				lo += j
				if pos = append(pos, lo); !ok {
					pos[len(pos)-1] = -1
				}
			}
			p.hops[x], p.hopsOf[x] = pos, &row[0]
		}
		for k, y := range p.hops[x][:len(row)] {
			if nc := p.dist[x] + (1 - row[k].Val); y >= 0 && row[k].Val > 0 && nc < p.dist[y] {
				p.dist[y], p.open[y] = nc, nc
			}
		}
	}
	p.builds++
}
