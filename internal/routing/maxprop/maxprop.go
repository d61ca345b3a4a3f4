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
}

// Home records where an endpoint address was last known to be homed.
type Home struct {
	Node    vclock.ReplicaID
	Updated int64
}

// Request is the routing state piggybacked on sync requests: the requester's
// homed addresses, its meeting-probability table (its own row plus learned
// rows), and its address-home beliefs.
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
	// per reachable node — built by the first PathCost after table or
	// weights changed; nil when stale. Homes do not enter it.
	dist map[vclock.ReplicaID]float64
}

// New creates a MaxProp policy for the given replica. hopThreshold <= 0
// selects DefaultHopThreshold; now supplies seconds (simulation or wall
// clock); ownAddresses are the endpoint addresses homed on this node.
func New(self vclock.ReplicaID, hopThreshold int, now func() int64, ownAddresses ...string) *Policy {
	if hopThreshold <= 0 {
		hopThreshold = DefaultHopThreshold
	}
	return &Policy{
		self:         self,
		hopThreshold: hopThreshold,
		now:          now,
		ownAddresses: append([]string(nil), ownAddresses...),
	}
}

// Name implements routing.Policy.
func (*Policy) Name() string { return "maxprop" }

// SetOwnAddresses updates the endpoint addresses homed on this node.
func (p *Policy) SetOwnAddresses(addrs ...string) {
	p.ownAddresses = append(p.ownAddresses[:0], addrs...)
}

// OwnRow returns this node's normalized next-encounter distribution. The
// weights are summed in key order, so one set of weights has one row.
func (p *Policy) OwnRow() sorted.Map[vclock.ReplicaID, float64] {
	total := 0.0
	for _, e := range p.weights.Entries() {
		total += e.Val
	}
	return sorted.Merge(p.weights, sorted.Map[vclock.ReplicaID, float64]{}, func(_ vclock.ReplicaID, w, _ *float64) (float64, bool) {
		return *w / total, total != 0
	})
}

// GenerateReq implements routing.Policy: ship homed addresses, the full
// freshest-rows table, and address homes. The table goes out as it stands;
// homes is copied, to stamp our own addresses into.
func (p *Policy) GenerateReq() routing.Request {
	now := p.now()
	own, _ := p.table.Get(p.self)
	own.Updated = now
	p.table.Set(p.self, own)
	homes := p.homes.Clone()
	for _, a := range p.ownAddresses {
		homes.Set(a, Home{Node: p.self, Updated: now})
	}
	return &Request{
		OwnAddresses: append([]string(nil), p.ownAddresses...),
		Table:        p.table.Share(),
		Homes:        homes,
	}
}

// ProcessReq implements routing.Policy: count the encounter (incrementing the
// partner's meeting weight and re-normalizing, per the protocol), then merge
// the partner's table rows and address homes freshest-first. Fires once per
// encounter per node because each encounter syncs once in each direction.
func (p *Policy) ProcessReq(from vclock.ReplicaID, req routing.Request) {
	r, ok := req.(*Request)
	if !ok || r == nil {
		return
	}
	now := p.now()
	w, _ := p.weights.Get(from)
	p.weights.Set(from, w+1)
	p.table.Update(r.Table, func(_ vclock.ReplicaID, cur, row *Row) (Row, bool) {
		if cur == nil || row != nil && row.Updated > cur.Updated {
			cur = row
		}
		return *cur, true
	})
	p.rebuildOwn(now) // after the merge: nobody else's view of us beats our own
	p.homes.Update(r.Homes, func(_ string, cur, h *Home) (Home, bool) {
		if cur == nil || h != nil && h.Updated > cur.Updated {
			cur = h
		}
		return *cur, true
	})
	for _, addr := range r.OwnAddresses {
		p.homes.Set(addr, Home{Node: from, Updated: now})
	}
}

// rebuildOwn replaces our own row with a fresh one normalized from the
// current weights and drops the path tree. It runs wherever weights or the
// table change — never on a decision path.
func (p *Policy) rebuildOwn(updated int64) {
	p.table.Set(p.self, Row{Probabilities: p.OwnRow(), Updated: updated})
	p.dist = nil
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
	if p.dist == nil {
		p.dist = shortestPaths(p.table, p.self)
	}
	if c, ok := p.dist[home.Node]; ok {
		return c
	}
	return math.Inf(1)
}

// shortestPaths computes, for every node reachable from src in the learned
// probability table, the minimum sum of (1 − f_x(y)) over paths from src.
// Edge costs are never negative (probabilities lie in [0, 1]), so a node's
// settled distance is the cost a search stopping at that node would return,
// and the strict < relaxation means equal-cost paths cannot change it.
func shortestPaths(table sorted.Map[vclock.ReplicaID, Row], src vclock.ReplicaID) map[vclock.ReplicaID]float64 {
	dist := map[vclock.ReplicaID]float64{src: 0}
	for pq := (costHeap{{src, 0}}); len(pq) > 0; {
		cur := pq.pop()
		if cur.cost > dist[cur.node] {
			continue
		}
		row, _ := table.Get(cur.node)
		for _, e := range row.Probabilities.Entries() {
			if e.Val <= 0 {
				continue
			}
			nc := cur.cost + (1 - e.Val)
			if d, seen := dist[e.Key]; !seen || nc < d {
				dist[e.Key] = nc
				pq.push(costEntry{e.Key, nc})
			}
		}
	}
	return dist
}

// costHeap is a binary min-heap of table indices on cost.
type costHeap []costEntry

type costEntry struct {
	node vclock.ReplicaID
	cost float64
}

func (h *costHeap) push(e costEntry) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0 && s[i].cost < s[(i-1)/2].cost; i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
	*h = s
}

func (h *costHeap) pop() costEntry {
	s, top := *h, (*h)[0]
	s[0], s = s[len(s)-1], s[:len(s)-1]
	for i, c := 0, 1; c < len(s); i, c = c, 2*c+1 {
		if c+1 < len(s) && s[c+1].cost < s[c].cost {
			c++
		}
		if !(s[c].cost < s[i].cost) {
			break
		}
		s[i], s[c] = s[c], s[i]
	}
	*h = s
	return top
}
