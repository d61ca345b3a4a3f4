package maxprop

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"replidtn/internal/vclock"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now, "addr:a")
	b := New("b", 3, clk.now, "addr:b")
	c := New("c", 3, clk.now, "addr:c")
	b.ProcessReq("c", reqFrom(c))
	a.ProcessReq("b", reqFrom(b))
	a.ProcessReq("b", reqFrom(b))
	data, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := New("a", 3, clk.now, "addr:a")
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.OwnRow().Entries(), restored.OwnRow().Entries()) {
		t.Errorf("row mismatch: %v vs %v", a.OwnRow().Entries(), restored.OwnRow().Entries())
	}
	if !reflect.DeepEqual(a.homes.Entries(), restored.homes.Entries()) {
		t.Errorf("homes mismatch: %v vs %v", a.homes.Entries(), restored.homes.Entries())
	}
	// Path costs computed from restored state match the original.
	want := a.PathCost("addr:c")
	got := restored.PathCost("addr:c")
	if math.IsInf(want, 1) != math.IsInf(got, 1) ||
		(!math.IsInf(want, 1) && math.Abs(want-got) > 1e-12) {
		t.Errorf("path cost after restore = %v, want %v", got, want)
	}
}

// TestSnapshotStateDeterministic: identical state serializes to identical
// bytes (see the PROPHET twin).
func TestSnapshotStateDeterministic(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now, "addr:a")
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("p%02d", i)
		a.ProcessReq(rid(id), reqFrom(New(rid(id), 3, clk.now, "addr:"+id)))
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
	restored := New("a", 3, clk.now, "addr:a")
	if err := restored.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.SnapshotState(); !bytes.Equal(first, again) {
		t.Error("restored state re-serializes to different bytes")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now, "addr:a")
	a.ProcessReq("b", reqFrom(New("b", 3, clk.now, "addr:b")))
	good, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// A negative meeting count would normalize to a probability above 1 —
	// a negative edge, on which the path search need not terminate.
	negative := (&refPolicy{weights: map[vclock.ReplicaID]float64{"b": 3, "c": -1}}).SnapshotState()
	for name, data := range map[string][]byte{
		"negative weight": negative,
		"garbage":         {0x01, 0x02},
		"empty":           nil,
		"future version":  append([]byte{stateVersion + 1}, good[1:]...),
		"cut":             good[:len(good)-3],
		"trailing":        append(append([]byte(nil), good...), 0),
	} {
		p := New("a", 3, clk.now)
		if err := p.RestoreState(data); err == nil {
			t.Errorf("%s: restored", name)
		}
		if p.OwnRow().Len() != 0 || p.homes.Len() != 0 {
			t.Errorf("%s: failed restore left state behind", name)
		}
	}
}

func TestRestoreEmptyState(t *testing.T) {
	clk := &simClock{}
	a := New("a", 3, clk.now)
	data, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := New("a", 3, clk.now)
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	if restored.OwnRow().Len() != 0 || restored.homes.Len() != 0 {
		t.Error("empty snapshot should restore to empty state")
	}
	// Maps must be usable (non-nil) after restoring an empty snapshot.
	restored.ProcessReq("b", reqFrom(New("b", 3, clk.now, "addr:b")))
	if restored.OwnRow().Len() != 1 {
		t.Error("restored policy unusable after empty snapshot")
	}
}

// TestRestoreIsDeterministic: our own row is the weights normalized, and
// float addition is not associative, so summing the weights in hash-map
// order gave one snapshot several own rows — and with them different path
// costs and state bytes on every restore. Sorted weights sum in one order.
func TestRestoreIsDeterministic(t *testing.T) {
	weights := map[vclock.ReplicaID]float64{}
	for i, w := range []float64{0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 0.05, 3.3} {
		weights[nodeID(i+1)] = w
	}
	state := (&refPolicy{weights: weights}).SnapshotState()
	var first []byte
	for i := 0; i < 200; i++ {
		p := New(nodeID(0), 3, (&simClock{}).now)
		if err := p.RestoreState(state); err != nil {
			t.Fatal(err)
		}
		again, err := p.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = again
		} else if !bytes.Equal(first, again) {
			t.Fatalf("restore %d of one snapshot re-serializes to different bytes", i)
		}
	}
}
