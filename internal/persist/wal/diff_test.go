package wal

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// TestDiffSnapshotsNamesEveryField walks replica.Snapshot the way
// TestMetaRecordRoundTripsEverySnapshotField does: for each field it sets a
// wrong value on one side of an equal pair and demands that DiffSnapshots
// name that field. A field of a type this test cannot fill fails it, so a
// field added later is compared and taught here. A pair that differs only
// where the comparisons see no difference — nil against empty, address and
// entry order — reports nothing.
func TestDiffSnapshotsNamesEveryField(t *testing.T) {
	knowledge := func(seqs ...uint64) []byte {
		k := vclock.NewKnowledge()
		for _, s := range seqs {
			k.Add(vclock.Version{Replica: "w", Seq: s})
		}
		b, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	entry := func(num uint64) store.EntrySnapshot {
		id := item.ID{Creator: "w", Num: num}
		return store.EntrySnapshot{Item: &item.Item{ID: id, Version: vclock.Version{Replica: "w", Seq: num}}, Arrival: num}
	}
	// fill sets field i of s: to a valid value, or with wrong to another one.
	fill := func(s *replica.Snapshot, i int, wrong bool) string {
		f, name := reflect.ValueOf(s).Elem().Field(i), reflect.TypeOf(*s).Field(i).Name
		switch {
		case name == "Knowledge" && wrong:
			s.Knowledge = knowledge(1, 3)
		case name == "Knowledge":
			s.Knowledge = knowledge(1, 2)
		case name == "Entries":
			s.Entries = []store.EntrySnapshot{entry(1), entry(2)}
			if wrong {
				s.Entries[1].Arrival = 3
			}
		case f.Kind() == reflect.String:
			f.SetString("v-" + name)
			if wrong {
				f.SetString("w-" + name)
			}
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(1000 + i))
			if wrong {
				f.SetUint(uint64(2000 + i))
			}
		case f.Type() == reflect.TypeOf([]string(nil)):
			f.Set(reflect.ValueOf([]string{name + "-a", name + "-b"}))
			if wrong {
				f.Index(1).SetString(name + "-c")
			}
		case f.Type() == reflect.TypeOf([]byte(nil)):
			f.SetBytes([]byte(name))
			if wrong {
				f.SetBytes([]byte(name + "!"))
			}
		default:
			t.Fatalf("Snapshot.%s has type %s, which this test cannot fill: teach it, and DiffSnapshots, the field", name, f.Type())
		}
		return name
	}
	snapshot := func() *replica.Snapshot {
		var s replica.Snapshot
		for i := range reflect.TypeOf(s).NumField() {
			fill(&s, i, false)
		}
		return &s
	}
	if d := DiffSnapshots(snapshot(), snapshot()); d != "" {
		t.Fatalf("equal snapshots differ: %s", d)
	}
	for i := range reflect.TypeOf(replica.Snapshot{}).NumField() {
		a, b := snapshot(), snapshot()
		name := fill(b, i, true)
		for _, d := range []string{DiffSnapshots(a, b), DiffSnapshots(b, a)} {
			if !strings.HasPrefix(d, name+" ") {
				t.Errorf("Snapshot.%s differs, reported as %q", name, d)
			}
		}
	}
	a, b := snapshot(), snapshot()
	slices.Reverse(b.OwnAddresses)
	slices.Reverse(b.Entries)
	a.FilterAddresses, b.FilterAddresses = nil, []string{}
	a.PolicyState, b.PolicyState = nil, []byte{}
	if d := DiffSnapshots(a, b); d != "" {
		t.Errorf("snapshots equal but for order and nil against empty differ: %s", d)
	}
}
