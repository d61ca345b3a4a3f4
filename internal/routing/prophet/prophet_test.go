package prophet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// simClock is a settable test clock.
type simClock struct{ t int64 }

func (c *simClock) now() int64 { return c.t }

func newPolicy(clk *simClock, addrs ...string) *Policy {
	return New(DefaultParams(), clk.now, addrs...)
}

func reqFrom(p *Policy) *Request { return p.GenerateReq().(*Request) }

func TestDirectEncounterBoost(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	a.ProcessReq("b", reqFrom(b))
	got := a.Predictability("addr:b")
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("P(a,b) = %v, want 0.75 after first encounter", got)
	}
	// Second encounter compounds: 0.75 + 0.25*0.75 = 0.9375.
	a.ProcessReq("b", reqFrom(b))
	if got := a.Predictability("addr:b"); math.Abs(got-0.9375) > 1e-12 {
		t.Errorf("P(a,b) = %v, want 0.9375 after second encounter", got)
	}
}

func TestAging(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	a.ProcessReq("b", reqFrom(b))
	base := a.Predictability("addr:b")
	clk.t += 10 * DefaultParams().AgingUnit
	aged := a.Predictability("addr:b")
	want := base * math.Pow(DefaultParams().Gamma, 10)
	if math.Abs(aged-want) > 1e-12 {
		t.Errorf("aged P = %v, want %v", aged, want)
	}
}

func TestAgingPartialUnitIsDeferred(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	a.ProcessReq("b", reqFrom(b))
	base := a.Predictability("addr:b")
	clk.t += DefaultParams().AgingUnit - 1
	if got := a.Predictability("addr:b"); got != base {
		t.Errorf("partial unit aged early: %v != %v", got, base)
	}
}

func TestTransitivity(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	c := newPolicy(clk, "addr:c")
	// b meets c, then a meets b: a should gain transitive predictability
	// for addr:c = P(a,b) * P(b,c) * beta.
	b.ProcessReq("c", reqFrom(c))
	a.ProcessReq("b", reqFrom(b))
	pab := a.Predictability("addr:b")
	pbc := b.Predictability("addr:c")
	want := pab * pbc * DefaultParams().Beta
	if got := a.Predictability("addr:c"); math.Abs(got-want) > 1e-12 {
		t.Errorf("transitive P(a,c) = %v, want %v", got, want)
	}
}

func TestTransitivityNeverLowers(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	c := newPolicy(clk, "addr:c")
	a.ProcessReq("c", reqFrom(c)) // direct: 0.75
	b := newPolicy(clk, "addr:b")
	b.ProcessReq("c", reqFrom(c))
	a.ProcessReq("b", reqFrom(b))
	if got := a.Predictability("addr:c"); got < 0.75-1e-12 {
		t.Errorf("transitive update lowered P(a,c) to %v", got)
	}
}

func TestOwnAddressNotPolluted(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	b.ProcessReq("a", reqFrom(a))
	a.ProcessReq("b", reqFrom(b))
	if _, ok := a.Vector().Get("addr:a"); ok {
		t.Error("a node must not track predictability for its own address")
	}
}

func msgEntry(dest string) *store.Entry {
	return &store.Entry{Item: &item.Item{
		ID:   item.ID{Creator: "a", Num: 1},
		Meta: item.Metadata{Destinations: []string{dest}},
	}}
}

func TestToSendComparesPredictabilities(t *testing.T) {
	clk := &simClock{}
	src := newPolicy(clk, "addr:src")
	tgt := newPolicy(clk, "addr:tgt")
	dst := newPolicy(clk, "addr:dst")
	// Target met the destination; source did not.
	tgt.ProcessReq("dst", reqFrom(dst))
	src.ProcessReq("tgt", reqFrom(tgt)) // also caches tgt's vector
	pr, _ := src.ToSend(msgEntry("addr:dst"), routing.Target{ID: "tgt"})
	if pr.Class != routing.ClassNormal {
		t.Fatal("message must be forwarded to a better custodian")
	}
	// Reverse direction: target has no vector cached for src → skip.
	pr, _ = tgt.ToSend(msgEntry("addr:dst"), routing.Target{ID: "unknown"})
	if pr.Class != routing.ClassSkip {
		t.Error("no cached vector for the partner must mean skip")
	}
}

func TestToSendSkipsWhenSourceIsBetter(t *testing.T) {
	clk := &simClock{}
	src := newPolicy(clk, "addr:src")
	tgt := newPolicy(clk, "addr:tgt")
	dst := newPolicy(clk, "addr:dst")
	src.ProcessReq("dst", reqFrom(dst)) // source met destination directly
	src.ProcessReq("tgt", reqFrom(tgt)) // target knows nothing about dst
	pr, _ := src.ToSend(msgEntry("addr:dst"), routing.Target{ID: "tgt"})
	if pr.Class != routing.ClassSkip {
		t.Error("message must stay with the better custodian")
	}
}

func TestToSendPriorityOrdersByMargin(t *testing.T) {
	clk := &simClock{}
	src := newPolicy(clk, "addr:src")
	d1 := newPolicy(clk, "addr:d1")
	d2 := newPolicy(clk, "addr:d2")
	tgt := newPolicy(clk, "addr:tgt")
	tgt.ProcessReq("d1", reqFrom(d1))
	tgt.ProcessReq("d1", reqFrom(d1)) // stronger predictability for d1
	tgt.ProcessReq("d2", reqFrom(d2))
	src.ProcessReq("tgt", reqFrom(tgt))
	p1, _ := src.ToSend(msgEntry("addr:d1"), routing.Target{ID: "tgt"})
	p2, _ := src.ToSend(msgEntry("addr:d2"), routing.Target{ID: "tgt"})
	if !p1.Before(p2) {
		t.Errorf("larger margin should transmit first: %+v vs %+v", p1, p2)
	}
}

func TestIgnoresForeignRequestTypes(t *testing.T) {
	clk := &simClock{}
	p := newPolicy(clk, "addr:a")
	p.ProcessReq("x", 42)  // must not panic
	p.ProcessReq("x", nil) // must not panic
	if p.Vector().Len() != 0 {
		t.Error("foreign requests must not mutate state")
	}
}

func TestSetOwnAddresses(t *testing.T) {
	clk := &simClock{}
	p := newPolicy(clk, "addr:old")
	p.SetOwnAddresses("addr:new")
	req := reqFrom(p)
	if len(req.OwnAddresses) != 1 || req.OwnAddresses[0] != "addr:new" {
		t.Errorf("OwnAddresses = %v", req.OwnAddresses)
	}
}

// TestPropPredictabilitiesStayInRange drives random encounter sequences and
// checks every predictability remains in [0, 1].
func TestPropPredictabilitiesStayInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		clk := &simClock{}
		const n = 5
		ps := make([]*Policy, n)
		for i := range ps {
			ps[i] = newPolicy(clk, addr(i))
		}
		for k := 0; k < 100; k++ {
			clk.t += int64(rng.Intn(7200))
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			ps[i].ProcessReq(id(j), reqFrom(ps[j]))
			ps[j].ProcessReq(id(i), reqFrom(ps[i]))
		}
		for _, p := range ps {
			for _, e := range p.Vector().Entries() {
				if v := e.Val; v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func addr(i int) string { return string(rune('a'+i)) + ":addr" }

func id(i int) vclock.ReplicaID { return vclock.ReplicaID(rune('a' + i)) }

func TestStrategyString(t *testing.T) {
	cases := map[Strategy]string{GRTR: "GRTR", GRTRSort: "GRTRSort", GRTRMax: "GRTRMax"}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestStrategiesShareTheGRTRPredicate(t *testing.T) {
	for _, st := range []Strategy{GRTR, GRTRSort, GRTRMax} {
		clk := &simClock{}
		params := DefaultParams()
		params.Strategy = st
		src := New(params, clk.now, "addr:src")
		tgt := newPolicy(clk, "addr:tgt")
		dst := newPolicy(clk, "addr:dst")
		tgt.ProcessReq("dst", reqFrom(dst))
		src.ProcessReq("tgt", reqFrom(tgt))
		if pr, _ := src.ToSend(msgEntry("addr:dst"), routing.Target{ID: "tgt"}); pr.Class != routing.ClassNormal {
			t.Errorf("%v: eligible message skipped", st)
		}
		if pr, _ := src.ToSend(msgEntry("addr:unknown"), routing.Target{ID: "tgt"}); pr.Class != routing.ClassSkip {
			t.Errorf("%v: ineligible message forwarded", st)
		}
	}
}

func TestGRTRMaxOrdersByAbsolutePredictability(t *testing.T) {
	clk := &simClock{}
	params := DefaultParams()
	params.Strategy = GRTRMax
	src := New(params, clk.now, "addr:src")
	d1 := newPolicy(clk, "addr:d1")
	d2 := newPolicy(clk, "addr:d2")
	tgt := newPolicy(clk, "addr:tgt")
	tgt.ProcessReq("d1", reqFrom(d1))
	tgt.ProcessReq("d1", reqFrom(d1)) // P(tgt,d1) > P(tgt,d2)
	tgt.ProcessReq("d2", reqFrom(d2))
	src.ProcessReq("tgt", reqFrom(tgt))
	p1, _ := src.ToSend(msgEntry("addr:d1"), routing.Target{ID: "tgt"})
	p2, _ := src.ToSend(msgEntry("addr:d2"), routing.Target{ID: "tgt"})
	if !p1.Before(p2) {
		t.Errorf("GRTRMax should favor the higher absolute predictability: %+v vs %+v", p1, p2)
	}
}

func TestGRTRUsesNoOrdering(t *testing.T) {
	clk := &simClock{}
	params := DefaultParams()
	params.Strategy = GRTR
	src := New(params, clk.now, "addr:src")
	dst := newPolicy(clk, "addr:dst")
	tgt := newPolicy(clk, "addr:tgt")
	tgt.ProcessReq("dst", reqFrom(dst))
	src.ProcessReq("tgt", reqFrom(tgt))
	pr, _ := src.ToSend(msgEntry("addr:dst"), routing.Target{ID: "tgt"})
	if pr.Cost != 0 {
		t.Errorf("GRTR should not assign costs, got %v", pr.Cost)
	}
}

// TestPublishedRequestImmutable: nothing reachable from a request changes
// once GenerateReq has returned (the routing.Request contract) until it is
// given back — although the request holds the sender's own vector, not a
// copy: the sender ages, updates, restores and re-homes a vector of its own
// from then on. The receiver's partner cache holds a copy, so once the
// request is given back (routing.Releaser) and the sender writes that vector
// in place, what the receiver reads stays as it was received.
func TestPublishedRequestImmutable(t *testing.T) {
	clk := &simClock{}
	sender := newPolicy(clk, "addr:s")
	receiver := newPolicy(clk, "addr:r")
	others := []*Policy{newPolicy(clk, "addr:x"), newPolicy(clk, "addr:y")}
	sender.ProcessReq("x", reqFrom(others[0]))
	state, err := sender.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	writes := func() { // by the sender, and by others to both sides
		for round := 0; round < 3; round++ {
			clk.t += 7 * DefaultParams().AgingUnit
			sender.Predictability("addr:x") // an aging pass on its own
			for i, o := range others {
				id := vclock.ReplicaID(rune('x' + i))
				sender.ProcessReq(id, reqFrom(o))
				receiver.ProcessReq(id, reqFrom(o))
				o.ProcessReq("s", reqFrom(sender))
				o.ProcessReq("r", reqFrom(receiver))
			}
			receiver.ToSend(msgEntry("addr:x"), routing.Target{ID: "s"})
			sender.ProcessReq("r", reqFrom(receiver))
			sender.SetOwnAddresses("addr:s", "addr:s2")
			if err := sender.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			clk.t += DefaultParams().AgingUnit
			reqFrom(sender)
		}
	}
	cached := func() []byte {
		return (&Request{Predictability: receiver.partners.vectors["s"]}).AppendBinary(nil)
	}

	// Kept: the request itself stays as published.
	req := reqFrom(sender)
	if &req.Predictability.Entries()[0] != &sender.p.Entries()[0] {
		t.Error("GenerateReq should publish the policy's vector, not copy it")
	}
	deep, err := DecodeRequest(req.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	receiver.ProcessReq("s", req)
	if vec := receiver.partners.vectors["s"]; &vec.Entries()[0] == &req.Predictability.Entries()[0] {
		t.Error("the partner cache should hold a copy of the received vector, not the sender's")
	}
	if want := (&Request{Predictability: req.Predictability}).AppendBinary(nil); !bytes.Equal(cached(), want) {
		t.Error("the partner cache holds another vector than the one received")
	}
	writes()
	if !bytes.Equal(deep.AppendBinary(nil), req.AppendBinary(nil)) {
		t.Error("a published request changed after GenerateReq returned")
	}

	// Given back: the sender writes its vector in place, the receiver's copy
	// stays. (An aging pass first copies the vector the requests above kept.)
	clk.t += DefaultParams().AgingUnit
	sender.Predictability("addr:x")
	req = reqFrom(sender)
	receiver.ProcessReq("s", req)
	want := cached()
	published := &req.Predictability.Entries()[0]
	sender.Release(req)
	clk.t += DefaultParams().AgingUnit
	if sender.Predictability("addr:x"); &sender.p.Entries()[0] != published {
		t.Error("the sender copied its vector to age it after the request was given back")
	}
	writes()
	if !bytes.Equal(cached(), want) {
		t.Error("the receiver's cached vector changed after the sender's request was given back")
	}
}

// TestGenerateReqCopiesNothing: publishing the vector costs the same at 16
// entries as at 1024 — the request, nothing sized by the vector.
func TestGenerateReqCopiesNothing(t *testing.T) {
	allocs := func(n int) float64 {
		clk := &simClock{}
		p := newPolicy(clk, "addr:s")
		history(p, clk, n)
		if got := p.Vector().Len(); got != n {
			t.Fatalf("vector holds %d entries, want %d", got, n)
		}
		return testing.AllocsPerRun(50, func() { p.GenerateReq() })
	}
	if small, large := allocs(16), allocs(1024); small != large || large > 2 {
		t.Errorf("GenerateReq allocates %v times at 16 entries, %v at 1024; want equal and <= 2", small, large)
	}
}
