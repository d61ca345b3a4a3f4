package replica

import (
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/store"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: floodPolicy{}})
	own := send(a, "addr:a", "addr:b")
	relayed := send(b, "addr:b", "addr:z")
	Sync(b, a, 0) // a relays b's message

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if !restored.HasItem(own.ID) || !restored.HasItem(relayed.ID) {
		t.Error("restored replica missing items")
	}
	if !restored.Knowledge().Equal(a.Knowledge()) {
		t.Error("knowledge mismatch after restore")
	}
	if got := restored.Filter().String(); got != a.Filter().String() {
		t.Errorf("filter after restore = %s, want %s", got, a.Filter())
	}
	if string(restored.ID()) != "a" {
		t.Error("ID accessor mismatch")
	}
	if restored.Policy() == nil {
		t.Error("Policy accessor lost the configured policy")
	}
	// The application-visible collection holds the locally created message
	// (Local entries are never relay entries) but not the relayed one.
	if items := restored.Items(); len(items) != 1 || items[0].ID != own.ID {
		t.Errorf("Items() = %v, want just the local message", items)
	}
}

func TestRestoreSnapshotRejectsMismatches(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := New(Config{ID: "other", OwnAddresses: []string{"addr:o"}})
	if err := other.RestoreSnapshot(snap); err == nil {
		t.Error("snapshot for a different replica must be rejected")
	}
	if err := a.RestoreSnapshot(nil); err == nil {
		t.Error("nil snapshot must be rejected")
	}
	snap.Knowledge = []byte{0xff}
	if err := a.RestoreSnapshot(snap); err == nil {
		t.Error("corrupt knowledge must be rejected")
	}
}

func TestSnapshotKeepsNonAddressFilter(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Filter: filter.All{}})
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.FilterAddresses != nil {
		t.Error("non-address filters must not serialize an address list")
	}
	restored := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Filter: filter.All{}})
	if err := restored.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.Filter().(filter.All); !ok {
		t.Errorf("configured filter replaced: %T", restored.Filter())
	}
}

func TestItemsReturnsApplicationCollection(t *testing.T) {
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}})
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	msg := send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	items := b.Items()
	if len(items) != 1 || items[0].ID != msg.ID {
		t.Errorf("Items() = %v", items)
	}
}

func TestTransmitTransientHopsMerge(t *testing.T) {
	e := &store.Entry{
		Item:      &item.Item{ID: item.ID{Creator: "a", Num: 1}},
		Transient: item.TransientMap{item.FieldHops: 3, item.FieldTTL: 7}.Transient(),
	}
	// Policy returned a fresh transient without hops: hops must be merged in.
	out := transmitTransient(e, item.TransientMap{item.FieldCopies: 4}.Transient())
	if out.Map()[item.FieldHops] != 3 || out.Map()[item.FieldCopies] != 4 {
		t.Errorf("merged transient = %v", out.Map())
	}
	if out.Has(item.FieldTTL) {
		t.Error("policy-substituted transient must not inherit other fields")
	}
	// Policy returned a transient that already sets hops: keep it.
	out = transmitTransient(e, item.TransientMap{item.FieldHops: 9}.Transient())
	if out.Map()[item.FieldHops] != 9 {
		t.Errorf("explicit hops overridden: %v", out.Map())
	}
	// No policy transient: the stored transient travels, as a copy.
	out = transmitTransient(e, item.Transient{})
	if out != e.Transient {
		t.Errorf("copied transient = %v", out.Map())
	}
	out.Set(item.FieldTTL, 1)
	if e.Transient.Map()[item.FieldTTL] != 7 {
		t.Error("transmitted transient shares storage with the entry")
	}
}
