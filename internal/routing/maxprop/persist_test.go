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
	if !reflect.DeepEqual(a.OwnRow(), restored.OwnRow()) {
		t.Errorf("row mismatch: %v vs %v", a.OwnRow(), restored.OwnRow())
	}
	if !reflect.DeepEqual(a.homes, restored.homes) {
		t.Errorf("homes mismatch: %v vs %v", a.homes, restored.homes)
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
		if len(p.OwnRow()) != 0 || len(p.homes) != 0 {
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
	if len(restored.OwnRow()) != 0 || len(restored.homes) != 0 {
		t.Error("empty snapshot should restore to empty state")
	}
	// Maps must be usable (non-nil) after restoring an empty snapshot.
	restored.ProcessReq("b", reqFrom(New("b", 3, clk.now, "addr:b")))
	if len(restored.OwnRow()) != 1 {
		t.Error("restored policy unusable after empty snapshot")
	}
}
