package maxprop

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// fleet builds n policies on one ticking clock; each node meets its next width
// ring neighbours, then two laps of gossip carry every row to every node.
func fleet(n, width int) []*Policy {
	clk := &simClock{}
	ps := make([]*Policy, n)
	for i := range ps {
		ps[i] = New(nodeID(i), DefaultHopThreshold, clk.now, fmt.Sprintf("addr:%02d", i))
	}
	meet := func(i, j int) {
		ps[i].ProcessReq(ps[j].self, ps[j].GenerateReq())
		ps[j].ProcessReq(ps[i].self, ps[i].GenerateReq())
	}
	for k := 1; k <= width; k++ {
		for i := range ps {
			meet(i, (i+k)%n)
		}
	}
	for lap := 0; lap < 2; lap++ {
		for i := range ps {
			meet(i, (i+1)%n)
		}
	}
	return ps
}

// candidates returns count entries above the hop threshold whose destinations
// cycle over the fleet's addresses.
func candidates(n, count int) []*store.Entry {
	out := make([]*store.Entry, count)
	for i := range out {
		out[i] = entryWith(DefaultHopThreshold+i%3, fmt.Sprintf("addr:%02d", i%n))
	}
	return out
}

// TestServingLeavesStateUntouched: ToSend and PathCost are decisions, not
// updates — serving a scan changes nothing SnapshotState serializes, even on
// a clock that moves with every reading.
func TestServingLeavesStateUntouched(t *testing.T) {
	ps := fleet(8, 3)
	p := ps[0]
	before, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range candidates(len(ps), 1000) {
		p.ToSend(e, routing.Target{ID: ps[1].self})
	}
	p.PathCost("addr:nowhere")
	after, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("serving 1000 candidates changed the policy's persisted state")
	}
}

// TestPublishedRequestImmutable: nothing reachable from a request changes
// once GenerateReq has returned, whatever sender and receiver go on to do —
// although the request holds the sender's own table, not a copy.
func TestPublishedRequestImmutable(t *testing.T) {
	ps := fleet(8, 3)
	sender, receiver := ps[0], ps[1]
	req := reqFrom(sender)
	if &req.Table.Entries()[0] != &sender.table.Entries()[0] {
		t.Error("GenerateReq should publish the policy's table, not copy it")
	}
	deep, err := DecodeRequest(req.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	receiver.ProcessReq(sender.self, req)
	state, err := sender.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, other := range ps[2:] {
			for _, p := range []*Policy{sender, receiver} {
				p.ProcessReq(other.self, other.GenerateReq())
				other.ProcessReq(p.self, p.GenerateReq())
			}
		}
		sender.ProcessReq(receiver.self, receiver.GenerateReq())
		receiver.ProcessReq(sender.self, sender.GenerateReq())
		sender.SetOwnAddresses("addr:00", fmt.Sprintf("addr:moved-%d", round))
		if err := sender.RestoreState(state); err != nil {
			t.Fatal(err)
		}
		sender.GenerateReq()
		sender.ToSend(entryWith(DefaultHopThreshold, "addr:03"), routing.Target{})
	}
	if !bytes.Equal(deep.AppendBinary(nil), req.AppendBinary(nil)) {
		t.Error("a published request changed after GenerateReq returned")
	}
}

// TestShortestPathsOncePerStateVersion: one tree serves every candidate of
// every sync until the next ProcessReq, which drops it; the next decision
// that prices a path builds it again.
func TestShortestPathsOncePerStateVersion(t *testing.T) {
	const n = 64
	ps := fleet(n, 4)
	p := ps[0]
	cands := candidates(n, 1000)
	if len(p.dist) != 0 {
		t.Fatal("ProcessReq should leave the tree unbuilt")
	}
	builds := p.builds
	p.ToSend(cands[1], routing.Target{})
	if len(p.dist) != n {
		t.Fatalf("tree spans %d nodes, want %d", len(p.dist), n)
	}
	for sync := 0; sync < 3; sync++ {
		p.GenerateReq() // the sync's other leg re-stamps our row; costs do not move
		for _, e := range cands {
			p.ToSend(e, routing.Target{})
		}
	}
	if got := p.builds - builds; got != 1 {
		t.Errorf("%d trees built for one routing state, want 1", got)
	}
	p.ProcessReq(ps[1].self, ps[1].GenerateReq())
	if len(p.dist) != 0 {
		t.Error("ProcessReq must drop the tree")
	}
	p.ToSend(cands[1], routing.Target{})
	if got := p.builds - builds; got != 2 {
		t.Errorf("%d trees built over two routing states, want 2", got)
	}
}

// TestGenerateReqAllocsIndependentOfRowWidth: a request shares the table and
// its rows, so its allocations follow neither the number of rows nor their
// width.
func TestGenerateReqAllocsIndependentOfRowWidth(t *testing.T) {
	allocs := func(ps []*Policy) float64 {
		return testing.AllocsPerRun(20, func() { ps[0].GenerateReq() })
	}
	narrow, wide := allocs(fleet(64, 2)), allocs(fleet(64, 24))
	few, many := allocs(fleet(8, 2)), allocs(fleet(512, 2))
	if narrow != wide || few != many || few != narrow {
		t.Errorf("GenerateReq allocates %v/%v times over 64 narrow/wide rows, %v/%v over 8/512 rows", narrow, wide, few, many)
	}
}

// TestRestoreRebuildsOwnRowFromWeights: a persisted own row that disagrees
// with the persisted weights loses — path costs follow the weights, as they
// did when the row was rebuilt on every query.
func TestRestoreRebuildsOwnRowFromWeights(t *testing.T) {
	state := (&refPolicy{
		weights: map[vclock.ReplicaID]float64{"b": 1},
		table:   map[vclock.ReplicaID]refRow{"a": {Probabilities: map[vclock.ReplicaID]float64{"c": 1}, Updated: 7}},
		homes:   map[string]Home{"addr:b": {Node: "b"}, "addr:c": {Node: "c"}},
	}).SnapshotState()
	p := New("a", 3, (&simClock{}).now)
	if err := p.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if got := p.PathCost("addr:b"); got != 0 {
		t.Errorf("cost to the only node ever met = %v, want 0", got)
	}
	if got := p.PathCost("addr:c"); !math.IsInf(got, 1) {
		t.Errorf("cost through a stale persisted row = %v, want +Inf", got)
	}
	if own, _ := p.table.Get("a"); own.Updated != 7 {
		t.Error("restore should keep the own row's stamp")
	}
}

// BenchmarkMaxPropServe is one served sync: the partner's routing state
// arrives (ProcessReq), then 1000 candidates above the hop threshold are
// scored.
func BenchmarkMaxPropServe(b *testing.B) {
	for _, n := range []int{40, 400} {
		b.Run(fmt.Sprintf("nodes=%d/candidates=1000", n), func(b *testing.B) {
			ps := fleet(n, 8)
			p, req := ps[0], ps[1].GenerateReq()
			cands := candidates(n, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.ProcessReq(ps[1].self, req)
				for _, e := range cands {
					p.ToSend(e, routing.Target{})
				}
			}
		})
	}
}
