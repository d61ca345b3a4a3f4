package maxprop

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

type simClock struct{ t int64 }

func (c *simClock) now() int64 { c.t++; return c.t }

func rid(s string) vclock.ReplicaID { return vclock.ReplicaID(s) }

func reqFrom(p *Policy) *Request { return p.GenerateReq().(*Request) }

func TestNewDefaults(t *testing.T) {
	clk := &simClock{}
	p := New("a", 0, clk.now)
	if p.hopThreshold != DefaultHopThreshold {
		t.Error("threshold <= 0 should select the default")
	}
	if p.Name() != "maxprop" {
		t.Error("wrong name")
	}
}

func TestOwnRowNormalized(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now)
	b := New("b", 3, clk.now, "addr:b")
	c := New("c", 3, clk.now, "addr:c")
	a.ProcessReq("b", reqFrom(b))
	a.ProcessReq("b", reqFrom(b))
	a.ProcessReq("c", reqFrom(c))
	row := a.OwnRow()
	sum := 0.0
	for _, e := range row.Entries() {
		sum += e.Val
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("row sums to %v, want 1", sum)
	}
	b2, _ := row.Get("b")
	c1, _ := row.Get("c")
	if math.Abs(b2-2.0/3) > 1e-12 || math.Abs(c1-1.0/3) > 1e-12 {
		t.Errorf("row = %v, want b=2/3 c=1/3", row.Entries())
	}
}

func TestEmptyOwnRow(t *testing.T) {
	clk := &simClock{}
	if New("a", 3, clk.now).OwnRow().Len() != 0 {
		t.Error("fresh node should have an empty distribution")
	}
}

func TestHomesLearnedDirectAndTransitive(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now)
	b := New("b", 3, clk.now, "addr:b")
	c := New("c", 3, clk.now, "addr:c")
	b.ProcessReq("c", reqFrom(c)) // b learns addr:c → c
	a.ProcessReq("b", reqFrom(b)) // a learns addr:b → b directly, addr:c → c transitively
	if h, _ := a.homes.Get("addr:b"); h.Node != "b" {
		t.Errorf("addr:b homed at %s, want b", h.Node)
	}
	if h, _ := a.homes.Get("addr:c"); h.Node != "c" {
		t.Errorf("addr:c homed at %s, want c", h.Node)
	}
}

func TestFreshestHomeWins(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now)
	b := New("b", 3, clk.now, "user:1")
	a.ProcessReq("b", reqFrom(b))
	// user:1 moves to node c; a hears from c later.
	b.SetOwnAddresses()
	c := New("c", 3, clk.now, "user:1")
	a.ProcessReq("c", reqFrom(c))
	if h, _ := a.homes.Get("user:1"); h.Node != "c" {
		t.Errorf("user:1 homed at %s, want c (freshest)", h.Node)
	}
}

func TestDijkstraDirectAndTwoHop(t *testing.T) {
	table := map[vclock.ReplicaID]refRow{
		"a": {Probabilities: map[vclock.ReplicaID]float64{"b": 0.5, "c": 0.1}},
		"b": {Probabilities: map[vclock.ReplicaID]float64{"c": 0.9}},
	}
	// Direct a→c: 0.9; via b: 0.5 + 0.1 = 0.6.
	got := dijkstra(table, "a", "c")
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("dijkstra = %v, want 0.6 (two-hop path)", got)
	}
	if got := dijkstra(table, "a", "zzz"); !math.IsInf(got, 1) {
		t.Errorf("unreachable node should cost +Inf, got %v", got)
	}
	if got := dijkstra(table, "a", "a"); got != 0 {
		t.Errorf("self path should cost 0, got %v", got)
	}
}

func TestPathCostUnknownHome(t *testing.T) {
	clk := &simClock{}
	p := New("a", 3, clk.now)
	if got := p.PathCost("addr:unknown"); !math.IsInf(got, 1) {
		t.Errorf("unknown home should cost +Inf, got %v", got)
	}
}

func TestPathCostOwnAddress(t *testing.T) {
	clk := &simClock{}
	p := New("a", 3, clk.now, "addr:a")
	p.ProcessReq("b", reqFrom(New("b", 3, clk.now, "addr:b")))
	// The request's own homes carry the stamp; the policy's do not.
	req, err := DecodeRequest(reqFrom(p).AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := req.Homes.Get("addr:a"); h.Node != "a" {
		t.Fatal("own address should be homed locally in requests")
	}
	p.homes.Set("addr:a", Home{Node: "a", Updated: clk.now()})
	if got := p.PathCost("addr:a"); got != 0 {
		t.Errorf("own address should cost 0, got %v", got)
	}
}

func entryWith(hops int, dest string) *store.Entry {
	e := &store.Entry{Item: &item.Item{
		ID:   item.ID{Creator: "a", Num: 1},
		Meta: item.Metadata{Destinations: []string{dest}},
	}}
	e.Transient.Set(item.FieldHops, hops)
	return e
}

func TestToSendHopThresholdClass(t *testing.T) {
	clk := &simClock{}
	p := New("a", 3, clk.now)
	fresh, _ := p.ToSend(entryWith(1, "addr:x"), routing.Target{ID: "b"})
	old, _ := p.ToSend(entryWith(5, "addr:x"), routing.Target{ID: "b"})
	if fresh.Class != routing.ClassHigh {
		t.Errorf("low-hop copy should be ClassHigh, got %v", fresh.Class)
	}
	if old.Class != routing.ClassNormal {
		t.Errorf("high-hop copy should be ClassNormal, got %v", old.Class)
	}
	if !fresh.Before(old) {
		t.Error("low-hop copies must transmit before path-cost copies")
	}
	fresher, _ := p.ToSend(entryWith(0, "addr:x"), routing.Target{ID: "b"})
	if !fresher.Before(fresh) {
		t.Error("within the hop class, fewer hops transmit first")
	}
}

func TestToSendNeverSkips(t *testing.T) {
	// MaxProp floods: even unknown destinations are eligible, just last.
	clk := &simClock{}
	p := New("a", 3, clk.now)
	pr, _ := p.ToSend(entryWith(9, "addr:unknown"), routing.Target{ID: "b"})
	if pr.Class == routing.ClassSkip {
		t.Error("MaxProp must not skip items")
	}
	if !math.IsInf(pr.Cost, 1) {
		t.Errorf("unknown destination should sort last, cost %v", pr.Cost)
	}
}

func TestToSendOrdersByPathCost(t *testing.T) {
	clk := &simClock{}
	a := New("a", 1, clk.now)
	near := New("near", 1, clk.now, "addr:near")
	far := New("far", 1, clk.now, "addr:far")
	mid := New("mid", 1, clk.now, "addr:mid")
	// a meets near often, mid once; mid meets far.
	mid.ProcessReq("far", reqFrom(far))
	for i := 0; i < 5; i++ {
		a.ProcessReq("near", reqFrom(near))
	}
	a.ProcessReq("mid", reqFrom(mid))
	pNear, _ := a.ToSend(entryWith(2, "addr:near"), routing.Target{ID: "x"})
	pFar, _ := a.ToSend(entryWith(2, "addr:far"), routing.Target{ID: "x"})
	if !pNear.Before(pFar) {
		t.Errorf("likelier destination should transmit first: %v vs %v", pNear.Cost, pFar.Cost)
	}
}

func TestIgnoresForeignRequestTypes(t *testing.T) {
	clk := &simClock{}
	p := New("a", 3, clk.now)
	p.ProcessReq("x", 42)
	p.ProcessReq("x", nil)
	if p.OwnRow().Len() != 0 {
		t.Error("foreign requests must not count as encounters")
	}
}

// TestPropDistributionsAlwaysNormalized checks that after arbitrary encounter
// sequences every learned row sums to 1 (or is empty).
func TestPropDistributionsAlwaysNormalized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := &simClock{}
		const n = 5
		ps := make([]*Policy, n)
		for i := range ps {
			id := rid(fmt.Sprintf("n%d", i))
			ps[i] = New(id, 3, clk.now, fmt.Sprintf("addr:%d", i))
		}
		for k := 0; k < 60; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			ps[i].ProcessReq(ps[j].self, reqFrom(ps[j]))
			ps[j].ProcessReq(ps[i].self, reqFrom(ps[i]))
		}
		for _, p := range ps {
			for _, row := range p.table.Entries() {
				if row.Val.Probabilities.Len() == 0 {
					continue
				}
				sum := 0.0
				for _, e := range row.Val.Probabilities.Entries() {
					if e.Val < 0 || e.Val > 1 {
						return false
					}
					sum += e.Val
				}
				if math.Abs(sum-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
