package replica_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// The routing-delta exactness differential: two fleets run the same random
// script in lockstep, one with summaries on — so recurring pairs ship routing
// deltas — and one always shipping full frames. Every request crosses the
// frame codec. After every step the policies' durable state must be equal
// byte for byte on both fleets, and every request a policy was handed must
// encode like the one its sender generated: a delta that reconstructs
// anything but the sender's request, anywhere, shows up in one or the other.
// (An external test: internal/wire imports this package.)

// spyPolicy records the request its policy was last handed.
type spyPolicy struct {
	routing.Policy
	seen routing.Request
}

func (s *spyPolicy) ProcessReq(from vclock.ReplicaID, req routing.Request) {
	s.seen = req
	s.Policy.ProcessReq(from, req)
}

func (s *spyPolicy) SnapshotState() ([]byte, error) {
	return s.Policy.(routing.Persistent).SnapshotState()
}

func (s *spyPolicy) RestoreState(data []byte) error {
	return s.Policy.(routing.Persistent).RestoreState(data)
}

// deltaFleet is one of the two fleets; the script drives both through the
// same methods with the same arguments.
type deltaFleet struct {
	t         *testing.T
	policy    string
	summaries bool
	now       *int64
	metrics   *obs.ReplicaMetrics
	nodes     []*replica.Replica
	spies     []*spyPolicy
	addrs     [][]string
}

const deltaFleetSize = 5

func nodeAddr(i int) string { return fmt.Sprintf("addr:%d", i) }

func (f *deltaFleet) build(i int) {
	clock := func() int64 { return *f.now }
	id := vclock.ReplicaID(fmt.Sprintf("n%d", i))
	var p routing.Policy
	if f.policy == "prophet" {
		p = prophet.New(prophet.DefaultParams(), clock, f.addrs[i]...)
	} else {
		p = maxprop.New(id, 1, clock, f.addrs[i]...)
	}
	f.spies[i] = &spyPolicy{Policy: p}
	f.nodes[i] = replica.New(replica.Config{
		ID: id, OwnAddresses: []string{nodeAddr(i)}, Policy: f.spies[i], Now: clock,
		SyncSummaries: f.summaries, Metrics: f.metrics,
	})
	replica.SetSummaryPeerCap(f.nodes[i], 2)
}

func newDeltaFleet(t *testing.T, policy string, summaries bool, now *int64) *deltaFleet {
	f := &deltaFleet{
		t: t, policy: policy, summaries: summaries, now: now, metrics: &obs.ReplicaMetrics{},
		nodes: make([]*replica.Replica, deltaFleetSize), spies: make([]*spyPolicy, deltaFleetSize),
		addrs: make([][]string, deltaFleetSize),
	}
	for i := range f.nodes {
		f.addrs[i] = []string{nodeAddr(i)}
		f.build(i)
	}
	return f
}

type legFault int

const (
	faultNone legFault = iota
	faultDropRequest
	faultDropResponse
)

// carry moves a request through the frame codec to the source and checks
// that the source's policy was handed the sender's routing state, however it
// travelled.
func (f *deltaFleet) carry(req *replica.SyncRequest, source int) *replica.SyncResponse {
	f.t.Helper()
	frame, err := wire.AppendSyncRequest(nil, req)
	if err != nil {
		f.t.Fatalf("encode request: %v", err)
	}
	got, err := wire.DecodeSyncRequest(frame)
	if err != nil {
		f.t.Fatalf("decode request: %v", err)
	}
	f.spies[source].seen = nil
	resp := f.nodes[source].HandleSyncRequest(got)
	if resp.NeedKnowledge {
		return resp
	}
	want, _ := wire.AppendRouting(nil, req.Routing)
	handed, err := wire.AppendRouting(nil, f.spies[source].seen)
	if err != nil || !bytes.Equal(handed, want) {
		f.t.Fatalf("%s: the source's policy was handed a request that encodes differently from the sender's (delta sent: %v, err %v)",
			f.policy, req.RoutingDelta != nil, err)
	}
	return resp
}

// errLost is the test carrier's failure: the frame never arrived.
var errLost = errors.New("frame lost")

// pull runs one directed sync, target from source, through Replica.Pull over
// a carrier that takes both frames through the codec, losing the request or
// the batch when told to.
func (f *deltaFleet) pull(target, source int, fault legFault) {
	f.t.Helper()
	_, err := f.nodes[target].Pull(f.nodes[source].ID(), replica.Budget{}, false, func(req *replica.SyncRequest) (*replica.SyncResponse, error) {
		if fault == faultDropRequest {
			return nil, errLost
		}
		resp := f.carry(req, source)
		if fault == faultDropResponse && !resp.NeedKnowledge {
			return nil, errLost
		}
		frame, err := wire.AppendSyncResponse(nil, resp)
		if err != nil {
			f.t.Fatalf("encode response: %v", err)
		}
		return wire.DecodeSyncResponse(frame)
	})
	if err != nil && !errors.Is(err, errLost) {
		f.t.Fatalf("pull: %v", err)
	}
}

func (f *deltaFleet) setAddresses(i int, addrs []string) {
	f.addrs[i] = addrs
	f.spies[i].Policy.(interface{ SetOwnAddresses(...string) }).SetOwnAddresses(addrs...)
}

// restart replaces node i by a successor restored from its snapshot.
func (f *deltaFleet) restart(i int) {
	f.t.Helper()
	snap, err := f.nodes[i].Snapshot()
	if err != nil {
		f.t.Fatal(err)
	}
	f.build(i)
	if err := f.nodes[i].RestoreSnapshot(snap); err != nil {
		f.t.Fatal(err)
	}
}

// touch makes node i's policy look at the clock, as any sync would.
func (f *deltaFleet) touch(i int) {
	if p, ok := f.spies[i].Policy.(*prophet.Policy); ok {
		p.Predictability("")
	}
}

func (f *deltaFleet) send(i int, dest string) {
	f.nodes[i].CreateItem(item.Metadata{Source: nodeAddr(i), Destinations: []string{dest}, Kind: "message"}, []byte("m"))
}

// runDeltaScript drives both fleets through one random script and reports
// whether they stayed equal. Failures inside a step are fatal on t.
func runDeltaScript(t *testing.T, policy string, seed int64, totals *obs.ReplicaMetrics) bool {
	rng := rand.New(rand.NewSource(seed))
	var now int64
	fleets := []*deltaFleet{newDeltaFleet(t, policy, true, &now), newDeltaFleet(t, policy, false, &now)}
	both := func(do func(f *deltaFleet)) {
		for _, f := range fleets {
			do(f)
		}
	}
	unit := prophet.DefaultParams().AgingUnit
	for step := 0; step < 120; step++ {
		// Clock gaps of zero, under one aging unit, a few units, and enough
		// units to age a fresh entry below the deletion threshold.
		switch rng.Intn(6) {
		case 0, 1:
		case 2, 3:
			now += 1 + rng.Int63n(unit-1)
		case 4:
			now += unit * (1 + rng.Int63n(20))
		case 5:
			now += unit * 1200
		}
		i, j := rng.Intn(deltaFleetSize), rng.Intn(deltaFleetSize-1)
		if j >= i {
			j++
		}
		switch op := rng.Intn(20); {
		case op < 12: // an encounter, either leg of which may lose a frame
			faults := [2]legFault{}
			for k := range faults {
				if rng.Intn(8) == 0 {
					faults[k] = legFault(1 + rng.Intn(2))
				}
			}
			both(func(f *deltaFleet) {
				f.pull(j, i, faults[0])
				f.pull(i, j, faults[1])
			})
		case op < 14:
			dest := nodeAddr(rng.Intn(deltaFleetSize))
			both(func(f *deltaFleet) { f.send(i, dest) })
		case op < 16: // an address moves to node i, or node i loses all
			addrs := []string{nodeAddr(i), "addr:roaming"}
			if rng.Intn(3) == 0 {
				addrs = nil
			}
			both(func(f *deltaFleet) { f.setAddresses(i, addrs) })
		case op < 18:
			both(func(f *deltaFleet) { f.restart(i) })
		default: // node i ages through more passes than the log holds
			for k, n := 0, 60+rng.Intn(20); k < n; k++ {
				now += unit
				both(func(f *deltaFleet) { f.touch(i) })
			}
		}
		for n := range fleets[0].nodes {
			a, errA := fleets[0].nodes[n].PolicyState()
			b, errB := fleets[1].nodes[n].PolicyState()
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Errorf("%s seed %d step %d: node %d's routing state differs between the delta-fed and the full-fed fleet (%v, %v)",
					policy, seed, step, n, errA, errB)
				return false
			}
			if !fleets[0].nodes[n].Knowledge().Equal(fleets[1].nodes[n].Knowledge()) {
				t.Errorf("%s seed %d step %d: node %d's knowledge differs between the fleets", policy, seed, step, n)
				return false
			}
		}
	}
	m := fleets[0].metrics
	totals.RoutingDeltaFrames.Add(m.RoutingDeltaFrames.Value())
	totals.RoutingFullFrames.Add(m.RoutingFullFrames.Value())
	totals.SummaryFallbacks.Add(m.SummaryFallbacks.Value())
	if got := fleets[1].metrics.RoutingDeltaFrames.Value(); got != 0 {
		t.Errorf("the full-fed fleet sent %d routing deltas", got)
	}
	return true
}

func TestQuickRoutingDeltasAreExact(t *testing.T) {
	for _, policy := range []string{"prophet", "maxprop"} {
		t.Run(policy, func(t *testing.T) {
			var totals obs.ReplicaMetrics
			check := func(seed int64) bool { return runDeltaScript(t, policy, seed, &totals) }
			if err := quick.Check(check, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(23))}); err != nil {
				t.Fatal(err)
			}
			// The scripts must have exercised what they claim to: deltas,
			// full frames beside them, and fallback rounds.
			deltas, fulls, fallbacks := totals.RoutingDeltaFrames.Value(), totals.RoutingFullFrames.Value(), totals.SummaryFallbacks.Value()
			if deltas < 100 || fulls < 100 || fallbacks < 25 {
				t.Errorf("scripts sent %d routing deltas, %d full frames and ran %d fallback rounds; too few to prove anything", deltas, fulls, fallbacks)
			}
			t.Logf("%d routing deltas, %d full frames, %d fallback rounds", deltas, fulls, fallbacks)
		})
	}
}
