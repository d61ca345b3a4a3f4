package prophet

import (
	"bytes"
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

// The reference PROPHET: the policy as it stood while its vectors were hash
// maps — aged where they stand, copied into every request, merged entry by
// entry. TestDifferentialAgainstReference drives it in lockstep with Policy;
// it is the oracle, not a second production path.

type refRequest struct {
	OwnAddresses   []string
	Predictability map[string]float64
}

type refPolicy struct {
	params       Params
	now          func() int64
	ownAddresses []string
	p            map[string]float64
	lastAged     int64
	partners     map[vclock.ReplicaID]map[string]float64
}

func newRef(params Params, now func() int64, own ...string) *refPolicy {
	return &refPolicy{
		params: params, now: now,
		ownAddresses: append([]string(nil), own...),
		p:            map[string]float64{},
		lastAged:     now(),
		partners:     map[vclock.ReplicaID]map[string]float64{},
	}
}

func (p *refPolicy) SetOwnAddresses(addrs ...string) {
	p.ownAddresses = append(p.ownAddresses[:0], addrs...)
}

func (p *refPolicy) age() {
	elapsed := p.now() - p.lastAged
	if elapsed < p.params.AgingUnit {
		return
	}
	k := elapsed / p.params.AgingUnit
	factor := math.Pow(p.params.Gamma, float64(k))
	for d, v := range p.p {
		nv := v * factor
		if nv < 1e-9 {
			delete(p.p, d)
			continue
		}
		p.p[d] = nv
	}
	p.lastAged += k * p.params.AgingUnit
}

func (p *refPolicy) Predictability(dest string) float64 {
	p.age()
	return p.p[dest]
}

func (p *refPolicy) GenerateReq() *refRequest {
	p.age()
	vec := make(map[string]float64, len(p.p))
	for d, v := range p.p {
		vec[d] = v
	}
	return &refRequest{OwnAddresses: append([]string(nil), p.ownAddresses...), Predictability: vec}
}

func (p *refPolicy) ownAddress(addr string) bool {
	return slices.Contains(p.ownAddresses, addr)
}

func (p *refPolicy) ProcessReq(from vclock.ReplicaID, r *refRequest) {
	p.age()
	for _, addr := range r.OwnAddresses {
		old := p.p[addr]
		p.p[addr] = old + (1-old)*p.params.PInit
	}
	pab := 0.0
	for _, addr := range r.OwnAddresses {
		if v := p.p[addr]; v > pab {
			pab = v
		}
	}
	for dest, pbc := range r.Predictability {
		if p.ownAddress(dest) {
			continue
		}
		if v := pab * pbc * p.params.Beta; v > p.p[dest] {
			p.p[dest] = v
		}
	}
	p.partners[from] = r.Predictability
}

func (p *refPolicy) ToSend(dests []string, target vclock.ReplicaID) routing.Priority {
	vec := p.partners[target]
	if vec == nil {
		return routing.Skip
	}
	p.age()
	bestMargin, bestTheirs := math.Inf(-1), math.Inf(-1)
	send := false
	for _, dest := range dests {
		theirs, ours := vec[dest], p.p[dest]
		if theirs > ours {
			send = true
			if margin := theirs - ours; margin > bestMargin {
				bestMargin = margin
			}
			if theirs > bestTheirs {
				bestTheirs = theirs
			}
		}
	}
	switch {
	case !send:
		return routing.Skip
	case p.params.Strategy == GRTR:
		return routing.Priority{Class: routing.ClassNormal}
	case p.params.Strategy == GRTRMax:
		return routing.Priority{Class: routing.ClassNormal, Cost: -bestTheirs}
	}
	return routing.Priority{Class: routing.ClassNormal, Cost: -bestMargin}
}

// appendMap is the map encoding the codec had before the vectors were
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

func appendRefVector(buf []byte, vec map[string]float64) []byte {
	return appendMap(buf, vec, prim.AppendFloat64)
}

func (r *refRequest) AppendBinary(buf []byte) []byte {
	return appendRefVector(prim.AppendStrings(buf, r.OwnAddresses), r.Predictability)
}

func (p *refPolicy) SnapshotState() []byte {
	p.age()
	buf := appendRefVector([]byte{stateVersion}, p.p)
	buf = prim.AppendVarint(buf, p.lastAged)
	return appendMap(buf, p.partners, appendRefVector)
}

func toMap[K ~string, V any](m sorted.Map[K, V]) map[K]V {
	out := make(map[K]V, m.Len())
	for _, e := range m.Entries() {
		out[e.Key] = e.Val
	}
	return out
}

func (p *refPolicy) RestoreState(data []byte) error {
	d := prim.NewDecoder(data)
	d.Byte()
	vec := readVector(d)
	lastAged := d.Varint()
	partners := sorted.Read[vclock.ReplicaID](d, func() sorted.Map[string, float64] { return readVector(d) })
	if err := d.Finish(); err != nil {
		return err
	}
	p.p, p.lastAged = toMap(vec), min(lastAged, p.now())
	p.partners = map[vclock.ReplicaID]map[string]float64{}
	for _, e := range partners.Entries() {
		p.partners[e.Key] = toMap(e.Val)
	}
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
	saved  [][]byte
}

func nodeID(i int) vclock.ReplicaID { return vclock.ReplicaID(fmt.Sprintf("n%02d", i)) }

func newLockstep(rng *rand.Rand) *lockstep {
	n := 3 + rng.Intn(30)
	l := &lockstep{rng: rng, clock: int64(rng.Intn(1000)), saved: make([][]byte, n)}
	now := func() int64 { return l.clock }
	params := DefaultParams()
	params.Strategy = Strategy(rng.Intn(3))
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("addr:%02d", i)
		l.addrs = append(l.addrs, addr)
		l.homeOf = append(l.homeOf, i)
		l.ref = append(l.ref, newRef(params, now, addr))
		l.got = append(l.got, New(params, now, addr))
	}
	l.addrs = append(l.addrs, "addr:ghost")
	l.homeOf = append(l.homeOf, -1)
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
	gotBytes := gotReq.AppendBinary(nil)
	if !bytes.Equal(refReq.AppendBinary(nil), gotBytes) || gotReq.WireSize() != len(gotBytes) {
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

// forged builds a request no honest node would send: repeated addresses,
// the receiver's own address in the vector, certain and zero values.
func (l *lockstep) forged(to int) *refRequest {
	grid := []float64{0, 0.25, 0.5, 1}
	pick := func() string { return l.addrs[l.rng.Intn(len(l.addrs))] }
	own := []string{pick(), pick()}
	own = append(own, own[0])
	vec := map[string]float64{}
	for _, a := range append(l.ownAddrs(to), pick(), pick()) {
		vec[a] = grid[l.rng.Intn(len(grid))]
	}
	return &refRequest{OwnAddresses: own, Predictability: vec}
}

func (l *lockstep) step() bool {
	n := len(l.ref)
	i, j := l.rng.Intn(n), l.rng.Intn(n-1)
	if j >= i {
		j++
	}
	switch op := l.rng.Intn(20); {
	case op < 10: // encounter: one sync in each direction
		if !l.sync(i, j) || !l.sync(j, i) {
			return false
		}
	case op < 13: // minutes to hours apart
		l.clock += int64(l.rng.Intn(200 * int(DefaultParams().AgingUnit)))
	case op < 14: // long enough for every entry to age out
		l.clock += 2000 * DefaultParams().AgingUnit
	case op < 16: // an address moves from wherever it is homed to node j
		a := l.rng.Intn(len(l.addrs))
		old := l.homeOf[a]
		l.homeOf[a] = j
		for _, node := range []int{old, j} {
			if node >= 0 {
				l.ref[node].SetOwnAddresses(l.ownAddrs(node)...)
				l.got[node].SetOwnAddresses(l.ownAddrs(node)...)
			}
		}
	case op < 17:
		state, err := l.got[i].SnapshotState()
		if err != nil || !bytes.Equal(state, l.ref[i].SnapshotState()) {
			return false
		}
		l.saved[i] = state
	case op < 18: // roll node i back to its last snapshot, in place
		if l.saved[i] == nil {
			break
		}
		if l.ref[i].RestoreState(l.saved[i]) != nil || l.got[i].RestoreState(l.saved[i]) != nil {
			return false
		}
	default:
		req := l.forged(i)
		got := &Request{OwnAddresses: req.OwnAddresses, Predictability: sorted.FromMap(req.Predictability)}
		l.ref[i].ProcessReq(nodeID(j), req)
		l.got[i].ProcessReq(nodeID(j), got)
	}
	// The two nodes the step touched and one bystander must agree bit for
	// bit on every predictability and on the priority for every partner.
	for _, node := range []int{i, j, l.rng.Intn(n)} {
		ref, got := l.ref[node], l.got[node]
		for _, a := range l.addrs {
			if math.Float64bits(ref.Predictability(a)) != math.Float64bits(got.Predictability(a)) {
				return false
			}
		}
		for k := 0; k < 4; k++ {
			target := nodeID(l.rng.Intn(n))
			dests := []string{l.addrs[l.rng.Intn(len(l.addrs))], l.addrs[l.rng.Intn(len(l.addrs))]}[:1+l.rng.Intn(2)]
			want := ref.ToSend(dests, target)
			e := msgEntry(dests[0])
			e.Item.Meta.Destinations = dests
			pr, _ := got.ToSend(e, routing.Target{ID: target})
			if pr.Class != want.Class || math.Float64bits(pr.Cost) != math.Float64bits(want.Cost) {
				return false
			}
		}
		if !bytes.Equal(ref.GenerateReq().AppendBinary(nil), got.GenerateReq().(*Request).AppendBinary(nil)) {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstReference: over random encounter sequences — clock
// gaps that age entries and drop them, re-homing, snapshot and restore,
// requests handed over by pointer or through the codec, forged requests —
// the policy's predictabilities, priorities, request bytes and state bytes
// equal the reference's exactly. Dropping the own-address skip from
// ProcessReq's merge fails it.
func TestDifferentialAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		l := newLockstep(rand.New(rand.NewSource(seed)))
		for k := 0; k < 8*len(l.ref); k++ {
			if !l.step() {
				t.Logf("seed %d: diverged at step %d of %d nodes", seed, k, len(l.ref))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
