package item

import (
	"fmt"
	"math"
	"testing"

	"replidtn/internal/vclock"
)

func TestIDString(t *testing.T) {
	id := ID{Creator: "bus07", Num: 12}
	if got := id.String(); got != "bus07/12" {
		t.Errorf("String() = %q", got)
	}
	if id.IsZero() {
		t.Error("non-zero ID reported zero")
	}
	if !(ID{}).IsZero() {
		t.Error("zero ID not reported zero")
	}
}

func TestMetadataHasDestination(t *testing.T) {
	m := Metadata{Destinations: []string{"user:1", "user:2"}}
	if !m.HasDestination("user:2") {
		t.Error("expected destination match")
	}
	if m.HasDestination("user:3") {
		t.Error("unexpected destination match")
	}
}

func TestItemClone(t *testing.T) {
	it := &Item{
		ID:      ID{Creator: "a", Num: 1},
		Version: vclock.Version{Replica: "a", Seq: 1},
		Prior:   []vclock.Version{{Replica: "a", Seq: 0}},
		Meta: Metadata{
			Source:       "user:1",
			Destinations: []string{"user:2"},
			Attrs:        map[string]string{"k": "v"},
		},
		Payload: []byte("hello"),
	}
	cp := it.Clone()
	cp.Meta.Destinations[0] = "user:9"
	cp.Meta.Attrs["k"] = "w"
	cp.Payload[0] = 'H'
	cp.Prior[0].Seq = 99
	if it.Meta.Destinations[0] != "user:2" {
		t.Error("clone shares Destinations slice")
	}
	if it.Meta.Attrs["k"] != "v" {
		t.Error("clone shares Attrs map")
	}
	if it.Payload[0] != 'h' {
		t.Error("clone shares Payload")
	}
	if it.Prior[0].Seq != 0 {
		t.Error("clone shares Prior slice")
	}
}

func TestItemSupersedes(t *testing.T) {
	id := ID{Creator: "a", Num: 1}
	v1 := &Item{ID: id, Version: vclock.Version{Replica: "a", Seq: 1}}
	v2 := &Item{ID: id, Version: vclock.Version{Replica: "b", Seq: 2}}
	if !v2.Supersedes(v1) {
		t.Error("v2 should supersede v1")
	}
	if v1.Supersedes(v2) {
		t.Error("v1 should not supersede v2")
	}
	other := &Item{ID: ID{Creator: "b", Num: 1}, Version: vclock.Version{Replica: "b", Seq: 9}}
	if other.Supersedes(v1) {
		t.Error("different logical items never supersede each other")
	}
}

func TestItemAllVersions(t *testing.T) {
	it := &Item{
		Version: vclock.Version{Replica: "b", Seq: 2},
		Prior:   []vclock.Version{{Replica: "a", Seq: 1}},
	}
	vs := it.AllVersions()
	if len(vs) != 2 || vs[0] != it.Version || vs[1] != it.Prior[0] {
		t.Errorf("AllVersions() = %v", vs)
	}
}

func TestTransientSetGet(t *testing.T) {
	var tr Transient
	if _, ok := tr.Get(FieldTTL); ok || tr.Len() != 0 {
		t.Error("zero transient should have no fields")
	}
	tr.Set(FieldTTL, 10)
	if v, ok := tr.Get(FieldTTL); !ok || v != 10 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if !tr.Has(FieldTTL) || tr.Has(FieldCopies) || tr.Len() != 1 {
		t.Errorf("presence after one Set: %+v", tr)
	}
	if v, ok := tr.Get(FieldCopies); ok || v != 0 {
		t.Error("absent field should read 0")
	}
	tr.Set(FieldHops, 1<<40)
	tr.Set(FieldCopies, -1<<40)
	if h, _ := tr.Get(FieldHops); h != math.MaxInt32 {
		t.Errorf("Set saturates high: %d", h)
	}
	if c, _ := tr.Get(FieldCopies); c != math.MinInt32 {
		t.Errorf("Set saturates low: %d", c)
	}
	if got := fmt.Sprint(FieldCopies, FieldHops, FieldTTL); got != "copies hops ttl" {
		t.Errorf("field names %q", got)
	}
}

// TestTransientClone pins value semantics: a copy is independent of its
// original, and the persistence form round-trips.
func TestTransientClone(t *testing.T) {
	var tr Transient
	tr.Set(FieldCopies, 8)
	cp := tr
	cp.Set(FieldCopies, 4)
	if c, _ := tr.Get(FieldCopies); c != 8 {
		t.Error("copy shares storage with original")
	}
	if (Transient{}).Map() != nil || TransientMap(nil).Clone() != nil {
		t.Error("empty persistence form should be nil")
	}
	tr.Set(FieldHops, 3)
	m := tr.Map()
	if len(m) != 2 || !m.Has(FieldCopies) || m.Has(FieldTTL) || m.Transient() != tr {
		t.Errorf("Map() = %v", m)
	}
	mc := m.Clone()
	delete(mc, FieldCopies)
	if !m.Has(FieldCopies) {
		t.Error("map clone shares storage with original")
	}
	if got := (TransientMap{FieldHops: 3, NumFields + 1: 9}).Transient(); got.Len() != 1 {
		t.Errorf("unknown keys should be ignored: %+v", got)
	}
}
