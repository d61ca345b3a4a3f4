package wal

import (
	"fmt"
	"maps"
	"reflect"
	"sort"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// DiffSnapshots reports the first semantic difference between two replica
// snapshots, or "" when they are equivalent. It exists for the recovery
// test suites (the crash-point matrix and the hard-crash differential
// against the live replica's own snapshot) and dtnbench's reopen check:
// reflect.DeepEqual over-distinguishes nil from empty slices, so equality
// is field-wise: entries as a set keyed by item ID, knowledge semantically,
// address lists as sorted sets.
func DiffSnapshots(a, b *replica.Snapshot) string {
	if a.ID != b.ID {
		return fmt.Sprintf("ID %q vs %q", a.ID, b.ID)
	}
	if a.Seq != b.Seq {
		return fmt.Sprintf("Seq %d vs %d", a.Seq, b.Seq)
	}
	if a.NextArrival != b.NextArrival {
		return fmt.Sprintf("NextArrival %d vs %d", a.NextArrival, b.NextArrival)
	}
	if a.Epoch != b.Epoch {
		return fmt.Sprintf("Epoch %d vs %d", a.Epoch, b.Epoch)
	}
	if !sameStrings(a.OwnAddresses, b.OwnAddresses) {
		return fmt.Sprintf("OwnAddresses %v vs %v", a.OwnAddresses, b.OwnAddresses)
	}
	if !sameStrings(a.FilterAddresses, b.FilterAddresses) {
		return fmt.Sprintf("FilterAddresses %v vs %v", a.FilterAddresses, b.FilterAddresses)
	}
	ka, err := knowledgeOf(a.Knowledge)
	if err != nil {
		return fmt.Sprintf("left knowledge: %v", err)
	}
	kb, err := knowledgeOf(b.Knowledge)
	if err != nil {
		return fmt.Sprintf("right knowledge: %v", err)
	}
	if !ka.Equal(kb) {
		return fmt.Sprintf("Knowledge %s vs %s", ka, kb)
	}
	if len(a.PolicyState) != len(b.PolicyState) || string(a.PolicyState) != string(b.PolicyState) {
		return fmt.Sprintf("PolicyState %d bytes vs %d bytes", len(a.PolicyState), len(b.PolicyState))
	}
	ea, eb := entryMap(a.Entries), entryMap(b.Entries)
	if len(ea) != len(eb) {
		return fmt.Sprintf("entry count %d vs %d", len(ea), len(eb))
	}
	for id, x := range ea {
		y, ok := eb[id]
		if !ok {
			return fmt.Sprintf("entry %s missing on one side", id)
		}
		if d := diffEntries(x, y); d != "" {
			return fmt.Sprintf("entry %s: %s", id, d)
		}
	}
	return ""
}

func knowledgeOf(b []byte) (*vclock.Knowledge, error) {
	k := vclock.NewKnowledge()
	if err := k.UnmarshalBinary(b); err != nil {
		return nil, err
	}
	return k, nil
}

func entryMap(entries []store.EntrySnapshot) map[item.ID]store.EntrySnapshot {
	m := make(map[item.ID]store.EntrySnapshot, len(entries))
	for _, e := range entries {
		m[e.Item.ID] = e
	}
	return m
}

func diffEntries(a, b store.EntrySnapshot) string {
	if a.Relay != b.Relay || a.Local != b.Local || a.Arrival != b.Arrival {
		return fmt.Sprintf("flags/arrival (%v,%v,%d) vs (%v,%v,%d)", a.Relay, a.Local, a.Arrival, b.Relay, b.Local, b.Arrival)
	}
	if !maps.Equal(a.Transient, b.Transient) {
		return fmt.Sprintf("transient %v vs %v", a.Transient, b.Transient)
	}
	x, y := a.Item, b.Item
	if x.ID != y.ID || x.Version != y.Version || x.Deleted != y.Deleted {
		return "item header differs"
	}
	if len(x.Prior) != len(y.Prior) {
		return fmt.Sprintf("prior %v vs %v", x.Prior, y.Prior)
	}
	for i := range x.Prior {
		if x.Prior[i] != y.Prior[i] {
			return fmt.Sprintf("prior %v vs %v", x.Prior, y.Prior)
		}
	}
	if string(x.Payload) != string(y.Payload) {
		return fmt.Sprintf("payload %q vs %q", x.Payload, y.Payload)
	}
	if !reflect.DeepEqual(normalizeMeta(x.Meta), normalizeMeta(y.Meta)) {
		return fmt.Sprintf("meta %+v vs %+v", x.Meta, y.Meta)
	}
	return ""
}

func normalizeMeta(m item.Metadata) item.Metadata {
	if len(m.Destinations) == 0 {
		m.Destinations = nil
	}
	if len(m.Attrs) == 0 {
		m.Attrs = nil
	}
	return m
}

// sameStrings compares string slices as sets, treating nil and empty alike.
func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
