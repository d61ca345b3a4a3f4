package prophet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"replidtn/internal/vclock"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	c := newPolicy(clk, "addr:c")
	b.ProcessReq("c", reqFrom(c))
	a.ProcessReq("b", reqFrom(b))
	data, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := newPolicy(clk, "addr:a")
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Vector().Entries(), restored.Vector().Entries()) {
		t.Errorf("vector mismatch: %v vs %v", a.Vector().Entries(), restored.Vector().Entries())
	}
	// The cached partner vectors must survive too: ToSend works right away.
	if _, ok := restored.partners.vectors["b"]; !ok {
		t.Error("partner cache lost through snapshot")
	}
}

// TestSnapshotStateDeterministic: identical state serializes to identical
// bytes — wal.DiffSnapshots compares PolicyState byte-wise, and the WAL meta
// record embeds it. (gob walked the maps in random order: 50 of 50 snapshots
// of this 20-partner state differed.)
func TestSnapshotStateDeterministic(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	for i := 0; i < 20; i++ {
		peer := newPolicy(clk, fmt.Sprintf("addr:p%02d", i))
		a.ProcessReq(vclock.ReplicaID(fmt.Sprintf("p%02d", i)), reqFrom(peer))
	}
	first, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		again, err := a.SnapshotState()
		if err != nil || !bytes.Equal(first, again) {
			t.Fatalf("snapshot %d of identical state differs (err %v)", i, err)
		}
	}
	restored := newPolicy(clk, "addr:a")
	if err := restored.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.SnapshotState(); !bytes.Equal(first, again) {
		t.Error("restored state re-serializes to different bytes")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	a.ProcessReq("b", reqFrom(newPolicy(clk, "addr:b")))
	good, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"garbage":        []byte("not a state document"),
		"empty":          nil,
		"future version": append([]byte{stateVersion + 1}, good[1:]...),
		"cut":            good[:len(good)-3],
		"trailing":       append(append([]byte(nil), good...), 0),
	} {
		p := newPolicy(clk, "addr:a")
		if err := p.RestoreState(data); err == nil {
			t.Errorf("%s: restored", name)
		}
		if p.Vector().Len() != 0 {
			t.Errorf("%s: failed restore left state behind", name)
		}
	}
}

func TestRestoreClampsFutureWatermark(t *testing.T) {
	clk := &simClock{t: 1000}
	a := newPolicy(clk, "addr:a")
	b := newPolicy(clk, "addr:b")
	a.ProcessReq("b", reqFrom(b))
	data, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a policy whose clock is behind the snapshot's watermark;
	// aging must not run backwards (negative elapsed time).
	past := &simClock{t: 0}
	restored := New(DefaultParams(), past.now, "addr:a")
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if restored.lastAged > 0 {
		t.Errorf("watermark %d not clamped to current time", restored.lastAged)
	}
	// Aging forward afterwards still works.
	past.t = 10 * DefaultParams().AgingUnit
	if v := restored.Predictability("addr:b"); v <= 0 || v >= 0.75 {
		t.Errorf("aged predictability = %v, want in (0, 0.75)", v)
	}
}

func TestRestoreEmptyState(t *testing.T) {
	clk := &simClock{}
	a := newPolicy(clk, "addr:a")
	data, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := newPolicy(clk, "addr:x")
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if restored.Vector().Len() != 0 {
		t.Error("empty snapshot should restore to empty state")
	}
}

func TestNameAndVectorOrder(t *testing.T) {
	clk := &simClock{}
	p := newPolicy(clk, "addr:a")
	if p.Name() != "prophet" {
		t.Error("wrong name")
	}
	b := newPolicy(clk, "addr:b")
	c := newPolicy(clk, "addr:c")
	p.ProcessReq("c", reqFrom(c))
	p.ProcessReq("b", reqFrom(b))
	got := p.Vector().Entries()
	if len(got) < 2 || got[0].Key > got[1].Key {
		t.Errorf("Vector = %v, want sorted destinations", got)
	}
}

func TestNewDefaultsAgingUnit(t *testing.T) {
	clk := &simClock{}
	p := New(Params{PInit: 0.5, Beta: 0.2, Gamma: 0.9}, clk.now)
	if p.params.AgingUnit != DefaultParams().AgingUnit {
		t.Errorf("AgingUnit = %d, want default", p.params.AgingUnit)
	}
}
