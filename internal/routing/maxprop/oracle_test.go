package maxprop

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// The reference MaxProp: the policy as it stood before routing state became
// published-immutable and path costs came from one tree per state version.
// It deep-copies every row in GenerateReq and ProcessReq, rewrites its own row
// on every request and every path query, and runs a fresh early-exit search
// per query, and it keeps every map a hash map. TestDifferentialAgainstReference
// drives it in lockstep with Policy; it is the oracle, not a second production
// path.

// refRow and refRequest are Row and Request as the reference keeps them.
type refRow struct {
	Probabilities map[vclock.ReplicaID]float64
	Updated       int64
}

type refRequest struct {
	OwnAddresses []string
	Table        map[vclock.ReplicaID]refRow
	Homes        map[string]Home
}

// toMap and fromMap convert between the representations.
func toMap[K ~string, V any](m sorted.Map[K, V]) map[K]V {
	out := make(map[K]V, m.Len())
	for _, e := range m.Entries() {
		out[e.Key] = e.Val
	}
	return out
}

func refTable(table sorted.Map[vclock.ReplicaID, Row]) map[vclock.ReplicaID]refRow {
	out := make(map[vclock.ReplicaID]refRow, table.Len())
	for _, e := range table.Entries() {
		out[e.Key] = refRow{Probabilities: toMap(e.Val.Probabilities), Updated: e.Val.Updated}
	}
	return out
}

// request is r as Policy takes it.
func (r *refRequest) request() *Request {
	table := make(map[vclock.ReplicaID]Row, len(r.Table))
	for id, row := range r.Table {
		table[id] = Row{Probabilities: sorted.FromMap(row.Probabilities), Updated: row.Updated}
	}
	return &Request{OwnAddresses: r.OwnAddresses, Table: sorted.FromMap(table), Homes: sorted.FromMap(r.Homes)}
}

// appendMap is the map encoding the codec had before the tables were
// sorted: a count, then the entries in ascending key order.
func appendMap[K ~string, V any](buf []byte, m map[K]V, value func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = prim.AppendUvarint(buf, uint64(len(m)))
	for _, k := range keys {
		buf = value(prim.AppendString(buf, string(k)), m[k])
	}
	return buf
}

func appendRefRow(buf []byte, row refRow) []byte {
	buf = appendMap(buf, row.Probabilities, prim.AppendFloat64)
	return prim.AppendVarint(buf, row.Updated)
}

func (r *refRequest) AppendBinary(buf []byte) []byte {
	buf = prim.AppendStrings(buf, r.OwnAddresses)
	buf = appendMap(buf, r.Table, appendRefRow)
	return appendMap(buf, r.Homes, appendHome)
}

type refEntry struct {
	node vclock.ReplicaID
	cost float64
}

type refHeap []refEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// dijkstra computes the minimum sum of (1 − f_x(y)) over paths from src to
// dst in the learned probability table, stopping when dst is settled.
func dijkstra(table map[vclock.ReplicaID]refRow, src, dst vclock.ReplicaID) float64 {
	dist := map[vclock.ReplicaID]float64{src: 0}
	pq := &refHeap{{node: src, cost: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(refEntry)
		if cur.node == dst {
			return cur.cost
		}
		if cur.cost > dist[cur.node] {
			continue
		}
		row, ok := table[cur.node]
		if !ok {
			continue
		}
		for next, prob := range row.Probabilities {
			if prob <= 0 {
				continue
			}
			nc := cur.cost + (1 - prob)
			if d, seen := dist[next]; !seen || nc < d {
				dist[next] = nc
				heap.Push(pq, refEntry{node: next, cost: nc})
			}
		}
	}
	return math.Inf(1)
}

type refPolicy struct {
	self         vclock.ReplicaID
	hopThreshold int
	now          func() int64
	ownAddresses []string
	weights      map[vclock.ReplicaID]float64
	table        map[vclock.ReplicaID]refRow
	homes        map[string]Home
}

func newRef(self vclock.ReplicaID, hopThreshold int, now func() int64, own ...string) *refPolicy {
	return &refPolicy{
		self: self, hopThreshold: hopThreshold, now: now,
		ownAddresses: append([]string(nil), own...),
		weights:      map[vclock.ReplicaID]float64{},
		table:        map[vclock.ReplicaID]refRow{},
		homes:        map[string]Home{},
	}
}

func (p *refPolicy) SetOwnAddresses(addrs ...string) {
	p.ownAddresses = append(p.ownAddresses[:0], addrs...)
}

func (p *refPolicy) ownRow() map[vclock.ReplicaID]float64 {
	total := 0.0
	for _, w := range p.weights {
		total += w
	}
	out := make(map[vclock.ReplicaID]float64, len(p.weights))
	if total == 0 {
		return out
	}
	for id, w := range p.weights {
		out[id] = w / total
	}
	return out
}

func (p *refPolicy) refreshOwn() {
	p.table[p.self] = refRow{Probabilities: p.ownRow(), Updated: p.now()}
}

func copyRow(row refRow) refRow {
	cp := make(map[vclock.ReplicaID]float64, len(row.Probabilities))
	for k, v := range row.Probabilities {
		cp[k] = v
	}
	return refRow{Probabilities: cp, Updated: row.Updated}
}

func (p *refPolicy) GenerateReq() *refRequest {
	p.refreshOwn()
	table := make(map[vclock.ReplicaID]refRow, len(p.table))
	for id, row := range p.table {
		table[id] = copyRow(row)
	}
	homes := make(map[string]Home, len(p.homes)+len(p.ownAddresses))
	for a, h := range p.homes {
		homes[a] = h
	}
	now := p.now()
	for _, a := range p.ownAddresses {
		homes[a] = Home{Node: p.self, Updated: now}
	}
	return &refRequest{
		OwnAddresses: append([]string(nil), p.ownAddresses...),
		Table:        table,
		Homes:        homes,
	}
}

func (p *refPolicy) ProcessReq(from vclock.ReplicaID, r *refRequest) {
	p.weights[from]++
	p.refreshOwn()
	for id, row := range r.Table {
		if id == p.self {
			continue
		}
		if cur, exists := p.table[id]; !exists || row.Updated > cur.Updated {
			p.table[id] = copyRow(row)
		}
	}
	for addr, h := range r.Homes {
		if cur, exists := p.homes[addr]; !exists || h.Updated > cur.Updated {
			p.homes[addr] = h
		}
	}
	now := p.now()
	for _, addr := range r.OwnAddresses {
		p.homes[addr] = Home{Node: from, Updated: now}
	}
}

func (p *refPolicy) PathCost(destAddr string) float64 {
	home, ok := p.homes[destAddr]
	if !ok {
		return math.Inf(1)
	}
	if home.Node == p.self {
		return 0
	}
	p.refreshOwn()
	return dijkstra(p.table, p.self, home.Node)
}

func (p *refPolicy) ToSend(hops int, dests []string) routing.Priority {
	if hops < p.hopThreshold {
		return routing.Priority{Class: routing.ClassHigh, Cost: float64(hops)}
	}
	cost := math.Inf(1)
	for _, dest := range dests {
		if c := p.PathCost(dest); c < cost {
			cost = c
		}
	}
	return routing.Priority{Class: routing.ClassNormal, Cost: cost}
}

func (p *refPolicy) SnapshotState() []byte {
	buf := appendMap([]byte{stateVersion}, p.weights, prim.AppendFloat64)
	buf = appendMap(buf, p.table, appendRefRow)
	return appendMap(buf, p.homes, appendHome)
}

func (p *refPolicy) RestoreState(data []byte) error {
	d := prim.NewDecoder(data)
	d.Byte()
	weights := sorted.Read[vclock.ReplicaID](d, d.Float64)
	table := readTable(d)
	homes := readHomes(d)
	if err := d.Finish(); err != nil {
		return err
	}
	p.weights, p.table, p.homes = toMap(weights), refTable(table), toMap(homes)
	return nil
}

// lockstep is one fleet simulated twice — reference and Policy — on a shared
// externally advanced clock.
type lockstep struct {
	rng    *rand.Rand
	clock  int64
	ref    []*refPolicy
	got    []*Policy
	addrs  []string // every address a message may name, one unknown to all
	homeOf []int    // addrs[i] is homed on node homeOf[i]; -1 for none
	saved  [][2][]byte
}

func nodeID(i int) vclock.ReplicaID { return vclock.ReplicaID(fmt.Sprintf("n%02d", i)) }

func newLockstep(rng *rand.Rand) *lockstep {
	n := 4 + rng.Intn(37)
	l := &lockstep{rng: rng, saved: make([][2][]byte, n)}
	now := func() int64 { return l.clock }
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("addr:%02d", i)
		l.addrs = append(l.addrs, addr)
		l.homeOf = append(l.homeOf, i)
		l.ref = append(l.ref, newRef(nodeID(i), DefaultHopThreshold, now, addr))
		l.got = append(l.got, New(nodeID(i), DefaultHopThreshold, now, addr))
	}
	l.addrs = append(l.addrs, "addr:ghost", "addr:nowhere")
	l.homeOf = append(l.homeOf, -1, -1)
	return l
}

func (l *lockstep) ownAddrs(node int) []string {
	var out []string
	for i, h := range l.homeOf {
		if h == node {
			out = append(out, l.addrs[i])
		}
	}
	return out
}

// sync delivers from's request to to in both worlds and reports whether the
// two requests encoded identically. Half the time Policy's request crosses
// the codec, as it would over TCP, instead of being handed over by pointer.
func (l *lockstep) sync(to, from int) bool {
	refReq := l.ref[from].GenerateReq()
	gotReq := l.got[from].GenerateReq().(*Request)
	refBytes, gotBytes := refReq.AppendBinary(nil), gotReq.AppendBinary(nil)
	if !bytes.Equal(refBytes, gotBytes) || gotReq.WireSize() != len(gotBytes) {
		return false
	}
	if l.rng.Intn(2) == 0 {
		decoded, err := DecodeRequest(gotBytes)
		if err != nil {
			return false
		}
		gotReq = decoded
	}
	l.ref[to].ProcessReq(nodeID(from), refReq)
	l.got[to].ProcessReq(nodeID(from), gotReq)
	return true
}

// forged builds a request no honest node would send: rows over a coarse
// probability grid — zero-probability edges, certain edges, and many
// equal-cost paths — and a home on a node nobody has a row for.
func (l *lockstep) forged(from int) *refRequest {
	grid := []float64{0, 0, 0.25, 0.5, 0.5, 0.75, 1}
	n := len(l.ref)
	table := map[vclock.ReplicaID]refRow{}
	for k := 0; k < 1+l.rng.Intn(4); k++ {
		probs := map[vclock.ReplicaID]float64{}
		for j := 0; j < 1+l.rng.Intn(5); j++ {
			probs[nodeID(l.rng.Intn(n))] = grid[l.rng.Intn(len(grid))]
		}
		table[nodeID(l.rng.Intn(n))] = refRow{Probabilities: probs, Updated: l.clock + int64(l.rng.Intn(3))}
	}
	return &refRequest{
		Table: table,
		Homes: map[string]Home{"addr:ghost": {Node: "offline", Updated: l.clock}},
	}
}

func (l *lockstep) step() bool {
	n := len(l.ref)
	i, j := l.rng.Intn(n), l.rng.Intn(n-1)
	if j >= i {
		j++
	}
	switch op := l.rng.Intn(20); {
	case op < 11: // encounter: one sync in each direction
		if !l.sync(i, j) || !l.sync(j, i) {
			return false
		}
	case op < 13:
		l.clock += int64(1 + l.rng.Intn(100))
	case op < 15: // an address moves from wherever it is homed to node j
		a := l.rng.Intn(n)
		old := l.homeOf[a]
		l.homeOf[a] = j
		for _, node := range []int{old, j} {
			l.ref[node].SetOwnAddresses(l.ownAddrs(node)...)
			l.got[node].SetOwnAddresses(l.ownAddrs(node)...)
		}
	case op < 17:
		state, err := l.got[i].SnapshotState()
		if err != nil {
			return false
		}
		l.saved[i] = [2][]byte{l.ref[i].SnapshotState(), state}
	case op < 18: // roll node i back to its last snapshot, in place
		if l.saved[i][0] == nil {
			break
		}
		if l.ref[i].RestoreState(l.saved[i][0]) != nil || l.got[i].RestoreState(l.saved[i][1]) != nil {
			return false
		}
	default:
		req := l.forged(j)
		l.ref[i].ProcessReq(nodeID(j), req)
		l.got[i].ProcessReq(nodeID(j), req.request())
	}
	// The two nodes the step touched and one bystander must agree bit for
	// bit on every path cost and on priorities either side of the threshold.
	for _, node := range []int{i, j, l.rng.Intn(n)} {
		ref, got := l.ref[node], l.got[node]
		for _, a := range l.addrs {
			if math.Float64bits(ref.PathCost(a)) != math.Float64bits(got.PathCost(a)) {
				return false
			}
		}
		for k := 0; k < 4; k++ {
			hops := l.rng.Intn(2 * DefaultHopThreshold)
			dests := []string{l.addrs[l.rng.Intn(len(l.addrs))], l.addrs[l.rng.Intn(len(l.addrs))]}[:1+l.rng.Intn(2)]
			want := ref.ToSend(hops, dests)
			e := entryWith(hops, dests[0])
			e.Item.Meta.Destinations = dests
			pr, _ := got.ToSend(e, routing.Target{ID: nodeID(j)})
			if pr.Class != want.Class || math.Float64bits(pr.Cost) != math.Float64bits(want.Cost) {
				return false
			}
		}
	}
	return true
}

// TestDifferentialAgainstReference: over random encounter sequences the
// policy's path costs, priorities and request bytes equal the reference's
// exactly. Dropping the tree invalidation from ProcessReq or RestoreState,
// or a table merge that keeps the older row, fails it.
func TestDifferentialAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		l := newLockstep(rand.New(rand.NewSource(seed)))
		for k := 0; k < 6*len(l.ref); k++ {
			if !l.step() {
				t.Logf("seed %d: diverged at step %d of %d nodes", seed, k, len(l.ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
