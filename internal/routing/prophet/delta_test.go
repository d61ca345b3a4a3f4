package prophet

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// viaWire carries a delta through its codec, as a frame would.
func viaWire(t *testing.T, d routing.Delta) *Delta {
	t.Helper()
	buf := d.(*Delta).AppendBinary(nil)
	if got := d.WireSize(); got != len(buf) {
		t.Fatalf("delta WireSize %d, encodes to %d bytes", got, len(buf))
	}
	back, err := DecodeDelta(buf)
	if err != nil {
		t.Fatalf("DecodeDelta of an honest delta: %v", err)
	}
	return back
}

// history gives p a vector of n destinations learned from throw-away peers.
func history(p *Policy, clk *simClock, n int) {
	for i := 0; i < n; i++ {
		clk.t++
		peer := newPolicy(clk, fmt.Sprintf("addr:h%02d", i))
		p.ProcessReq(vclock.ReplicaID(fmt.Sprintf("h%02d", i)), reqFrom(peer))
	}
}

// TestDeltaReconstructsExactly walks one sender through the cases a delta has
// to express — nothing changed, one aging pass, a pass hours long, entries
// aged out, entries boosted between passes, an entry aged out and learned
// again, addresses re-homed — and checks after each that the receiver's
// reconstruction encodes byte for byte like the full request, at a fraction
// of its size. Both sides keep what they hold as a replica does: the sender
// a copy of its last request, the receiver two buffers it applies into in
// turn.
func TestDeltaReconstructsExactly(t *testing.T) {
	clk := &simClock{}
	sender := newPolicy(clk, "addr:s")
	history(sender, clk, 64)
	unit := DefaultParams().AgingUnit
	peer := newPolicy(clk, "addr:p")

	base := reqFrom(sender).CopyInto(nil)
	held, spare := base.(*Request).CopyInto(nil), routing.Request(nil) // the receiver's copy
	steps := []struct {
		name     string
		do       func()
		maxBytes int // 0: no bound
	}{
		{"nothing changed", func() {}, 16},
		{"partial unit", func() { clk.t += unit - 1 }, 16},
		{"one aging pass", func() { clk.t += unit }, 24},
		{"boost between passes", func() {
			clk.t += unit
			sender.ProcessReq("p", reqFrom(peer))
			clk.t += unit
		}, 64},
		{"hours apart", func() { clk.t += 400 * unit }, 24},
		{"re-homed", func() { sender.SetOwnAddresses("addr:s", "addr:s2") }, 40},
		{"no addresses", func() { sender.SetOwnAddresses() }, 16},
		{"aged out", func() { clk.t += 2000 * unit }, 24},
		{"learned again", func() { sender.ProcessReq("p", reqFrom(peer)) }, 64},
	}
	for _, st := range steps {
		st.do()
		cur := reqFrom(sender)
		d := cur.DeltaSince(base)
		if d == nil {
			t.Fatalf("%s: no delta", st.name)
		}
		got, err := viaWire(t, d).Apply(held, spare)
		if err != nil {
			t.Fatalf("%s: Apply: %v", st.name, err)
		}
		want := cur.AppendBinary(nil)
		if !bytes.Equal(got.(*Request).AppendBinary(nil), want) {
			t.Fatalf("%s: reconstruction differs from the full request", st.name)
		}
		if cur.WireSize() != len(want) {
			t.Errorf("%s: request WireSize %d, encodes to %d bytes", st.name, cur.WireSize(), len(want))
		}
		if st.maxBytes > 0 && d.WireSize() > st.maxBytes {
			t.Errorf("%s: delta is %d bytes (full %d), want <= %d", st.name, d.WireSize(), len(want), st.maxBytes)
		}
		base, held, spare = cur.CopyInto(base), got, held
	}
	if n := base.(*Request).Predictability.Len(); n != 1 {
		t.Fatalf("scenario should end on the one re-learned entry, has %d", n)
	}
}

// TestDeltaDeclines: DeltaSince returns nil — the full request travels —
// rather than a delta it cannot make exact or the decoder would refuse.
func TestDeltaDeclines(t *testing.T) {
	clk := &simClock{}
	unit := DefaultParams().AgingUnit
	sender := newPolicy(clk, "addr:s")
	history(sender, clk, 4)
	base := reqFrom(sender)

	if d := reqFrom(sender).DeltaSince(nil); d != nil {
		t.Error("delta against no base")
	}
	if d := reqFrom(sender).DeltaSince("not a request"); d != nil {
		t.Error("delta against a foreign base")
	}

	// Exactly maxAgingLog passes still fit the log; one more does not.
	for i := 0; i < maxAgingLog; i++ {
		clk.t += unit
		sender.Predictability("addr:h00")
	}
	if d := reqFrom(sender).DeltaSince(base); d == nil || len(d.(*Delta).Factors) != maxAgingLog {
		t.Fatalf("delta over %d passes: %v", maxAgingLog, d)
	}
	clk.t += unit
	if d := reqFrom(sender).DeltaSince(base); d != nil {
		t.Errorf("delta over %d passes, the log holds %d", maxAgingLog+1, maxAgingLog)
	}
	if len(sender.aging) > maxAgingLog {
		t.Errorf("aging log grew to %d, bound %d", len(sender.aging), maxAgingLog)
	}

	// γ^k underflows to 0 for a long enough absence: not a factor the decoder
	// accepts, so not one to send.
	base = reqFrom(sender)
	clk.t += 100000 * unit
	if d := reqFrom(sender).DeltaSince(base); d != nil {
		t.Errorf("delta carrying factor %v", d.(*Delta).Factors)
	}

	// An entry the base holds and the subject lacks cannot be said.
	holds := &Request{Predictability: sorted.FromMap(map[string]float64{"addr:a": 0.5})}
	if d := (&Request{}).DeltaSince(holds); d != nil {
		t.Error("delta dropping an entry")
	}
}

// TestDeltaHostile: deltas no honest sender emits die in the decoder, or —
// when only the base can tell — in Apply, which leaves the base untouched.
func TestDeltaHostile(t *testing.T) {
	honest := func() *Delta {
		return &Delta{Factors: []float64{0.5}, Set: sorted.FromMap(map[string]float64{"addr:x": 0.25}), Total: 2}
	}
	factor := func(f float64) []byte { d := honest(); d.Factors[0] = f; return d.AppendBinary(nil) }
	value := func(v float64) []byte { d := honest(); d.Set.Set("addr:x", v); return d.AppendBinary(nil) }
	tooMany := &Delta{Factors: make([]float64, maxAgingLog+1)}
	for i := range tooMany.Factors {
		tooMany.Factors[i] = 0.5
	}
	two := (&Delta{Set: sorted.FromMap(map[string]float64{"a": 0.5, "b": 0.5}), Total: 2}).AppendBinary(nil)
	swap := func(from, to string) []byte { return bytes.Replace(two, []byte("\x01"+from), []byte("\x01"+to), 1) }
	for name, buf := range map[string][]byte{
		"factor NaN":       factor(math.NaN()),
		"factor +Inf":      factor(math.Inf(1)),
		"factor -Inf":      factor(math.Inf(-1)),
		"factor zero":      factor(0),
		"factor negative":  factor(-0.5),
		"factor above one": factor(1.0000001),
		"too many factors": tooMany.AppendBinary(nil),
		"value above one":  value(1.5),
		"value negative":   value(-0.1),
		"value NaN":        value(math.NaN()),
		"unsorted keys":    swap("a", "c"),
		"duplicate keys":   swap("b", "a"),
		"forged count":     prim.AppendUvarint(nil, 1<<40),
		"trailing bytes":   append(honest().AppendBinary(nil), 0),
		"truncated":        honest().AppendBinary(nil)[:5],
	} {
		if d, err := DecodeDelta(buf); err == nil {
			t.Errorf("%s: decoded %+v", name, d)
		}
	}

	base := &Request{Predictability: sorted.FromMap(map[string]float64{"addr:a": 0.5, "addr:b": 0.5})}
	before := base.AppendBinary(nil)
	for name, d := range map[string]*Delta{
		// The base has no addr:c to leave unchanged.
		"absent key unchanged": {Set: sorted.FromMap(map[string]float64{"addr:x": 0.1}), Total: 4},
		"fewer than the base":  {Total: 1},
		"forged total":         {Total: 1 << 40},
	} {
		if got, err := viaWire(t, d).Apply(base, nil); err == nil {
			t.Errorf("%s: applied to %+v", name, got)
		}
	}
	if _, err := honest().Apply("not a request", nil); err == nil {
		t.Error("delta applied to a foreign base")
	}
	if !bytes.Equal(before, base.AppendBinary(nil)) {
		t.Error("a refused delta wrote the base")
	}
}

// TestRestoreKeepsPartnersEvictable: RestoreState used to rebuild the partner
// cache without its eviction order, so with a full cache restored the next
// partner stored was the one evicted — and ToSend skipped everything for it.
func TestRestoreKeepsPartnersEvictable(t *testing.T) {
	clk := &simClock{}
	full := newPolicy(clk, "addr:a")
	vec := sorted.FromMap(map[string]float64{"addr:dst": 0.5})
	for i := 0; i < partnerCap; i++ {
		full.partners.store(vclock.ReplicaID(fmt.Sprintf("peer-%05d", i)), vec)
	}
	state, err := full.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	p := newPolicy(clk, "addr:a")
	if err := p.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	// The newcomer has met addr:far's home; p only hears of it through the
	// newcomer, so the newcomer is the better carrier.
	newcomer := newPolicy(clk, "addr:n")
	newcomer.ProcessReq("x", &Request{OwnAddresses: []string{"addr:far"}})
	p.ProcessReq("newcomer", reqFrom(newcomer))
	if pr, _ := p.ToSend(msgEntry("addr:far"), routing.Target{ID: "newcomer"}); pr.Class == routing.ClassSkip {
		t.Error("ToSend skips for the partner met after a restore with a full cache")
	}
	if len(p.partners.vectors) != partnerCap || len(p.partners.order) != partnerCap {
		t.Errorf("cache holds %d vectors, %d order entries, want %d", len(p.partners.vectors), len(p.partners.order), partnerCap)
	}
	if _, ok := p.partners.vectors["peer-00000"]; ok {
		t.Error("restored partners should be evicted in sorted order, oldest first")
	}
}
