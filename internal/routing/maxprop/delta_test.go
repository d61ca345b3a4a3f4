package maxprop

import (
	"bytes"
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

// TestDeltaReconstructsExactly: a node of a 64-row fleet keeps meeting one
// neighbour, now and then another; each request reaches the neighbour as a
// delta and reconstructs byte for byte, carrying only the rows that were
// replaced — the sender's own, re-stamped by every GenerateReq, and whatever
// it learned in between. Both sides keep what they hold as a replica does:
// the sender a copy of its last request, the receiver two buffers it applies
// into in turn.
func TestDeltaReconstructsExactly(t *testing.T) {
	ps := fleet(64, 3)
	sender, other := ps[0], ps[7]
	base := reqFrom(sender).CopyInto(nil)
	held, spare := base.(*Request).CopyInto(nil), routing.Request(nil)
	for round := 0; round < 6; round++ {
		learned := 1 // the own row
		if round%2 == 1 {
			sender.ProcessReq(other.self, reqFrom(other))
			learned = 2 // and the other node's
		}
		if round == 4 {
			sender.SetOwnAddresses("addr:00", "addr:moved")
		}
		cur := reqFrom(sender)
		d := cur.DeltaSince(base)
		if d == nil {
			t.Fatalf("round %d: no delta", round)
		}
		if got := d.(*Delta).Rows.Len(); got > learned {
			t.Errorf("round %d: delta carries %d rows of %d, want <= %d", round, got, cur.Table.Len(), learned)
		}
		got, err := viaWire(t, d).Apply(held, spare)
		if err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		want := cur.AppendBinary(nil)
		if !bytes.Equal(got.(*Request).AppendBinary(nil), want) {
			t.Fatalf("round %d: reconstruction differs from the full request", round)
		}
		if cur.WireSize() != len(want) {
			t.Errorf("round %d: request WireSize %d, encodes to %d bytes", round, cur.WireSize(), len(want))
		}
		if d.WireSize()*8 > len(want) {
			t.Errorf("round %d: delta is %d bytes of a %d-byte request", round, d.WireSize(), len(want))
		}
		base, held, spare = cur.CopyInto(base), got, held
	}
}

// TestDeltaDeclinesAndRefuses: DeltaSince returns nil where a delta cannot
// say what changed; DecodeDelta and Apply refuse what no sender emits, and a
// refused delta leaves the base as it was.
func TestDeltaDeclinesAndRefuses(t *testing.T) {
	row := func(p float64) Row {
		return Row{Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"x": p}), Updated: 1}
	}
	base := &Request{
		Table: sorted.FromMap(map[vclock.ReplicaID]Row{"a": row(0.5), "b": row(0.5)}),
		Homes: sorted.FromMap(map[string]Home{"addr:a": {Node: "a", Updated: 1}}),
	}
	before := base.AppendBinary(nil)

	if d := base.DeltaSince(nil); d != nil {
		t.Error("delta against no base")
	}
	if d := base.DeltaSince("not a request"); d != nil {
		t.Error("delta against a foreign base")
	}
	a, _ := base.Table.Get("a")
	if d := (&Request{Table: sorted.FromMap(map[vclock.ReplicaID]Row{"a": a}), Homes: base.Homes}).DeltaSince(base); d != nil {
		t.Error("delta dropping a row")
	}
	if d := (&Request{Table: base.Table}).DeltaSince(base); d != nil {
		t.Error("delta dropping a home")
	}

	two := (&Delta{Homes: sorted.FromMap(map[string]Home{"a": {}, "b": {}})}).AppendBinary(nil)
	swap := func(from, to string) []byte { return bytes.Replace(two, []byte("\x01"+from), []byte("\x01"+to), 1) }
	for name, buf := range map[string][]byte{
		"row above one":  (&Delta{Rows: sorted.FromMap(map[vclock.ReplicaID]Row{"a": row(1.5)})}).AppendBinary(nil),
		"unsorted keys":  swap("a", "c"),
		"duplicate keys": swap("b", "a"),
		"forged count":   append([]byte{0}, prim.AppendUvarint(nil, 1<<40)...),
		"trailing bytes": append((&Delta{}).AppendBinary(nil), 0),
		"truncated":      two[:len(two)-3],
	} {
		if d, err := DecodeDelta(buf); err == nil {
			t.Errorf("%s: decoded %+v", name, d)
		}
	}

	for name, d := range map[string]*Delta{
		// The base has no third row, no second home, to leave unchanged.
		"absent row unchanged":  {Rows: sorted.FromMap(map[vclock.ReplicaID]Row{"c": row(0.25)}), TotalRows: 4, TotalHomes: 1},
		"absent home unchanged": {TotalRows: 2, TotalHomes: 2},
		"fewer rows than base":  {TotalRows: 1, TotalHomes: 1},
		"forged total":          {TotalRows: 1 << 40, TotalHomes: 1},
	} {
		if got, err := viaWire(t, d).Apply(base, nil); err == nil {
			t.Errorf("%s: applied to %+v", name, got)
		}
	}
	if _, err := (&Delta{}).Apply("not a request", nil); err == nil {
		t.Error("delta applied to a foreign base")
	}
	if !bytes.Equal(before, base.AppendBinary(nil)) {
		t.Error("a refused delta wrote the base")
	}
}
