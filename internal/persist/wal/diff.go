package wal

import (
	"fmt"
	"maps"
	"reflect"
	"slices"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// DiffSnapshots reports the first semantic difference between two replica
// snapshots, naming the field, or "" when they are equivalent. It exists for
// the recovery test suites (the crash-point matrix and the hard-crash
// differential against the live replica's own snapshot) and dtnbench's
// reopen check. It walks every field of replica.Snapshot, so a field added
// later is compared too: with reflect.DeepEqual, unless snapshotFieldDiffs
// compares it by meaning — DeepEqual over-distinguishes nil from empty.
func DiffSnapshots(a, b *replica.Snapshot) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		name := va.Type().Field(i).Name
		if diff, ok := snapshotFieldDiffs[name]; ok {
			if d := diff(a, b); d != "" {
				return name + " " + d
			}
		} else if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(x, y) {
			return fmt.Sprintf("%s %v vs %v", name, x, y)
		}
	}
	return ""
}

// snapshotFieldDiffs compares the fields DiffSnapshots does not leave to
// reflect.DeepEqual: knowledge semantically, entries as a set keyed by item
// ID, address lists as sets and the policy state byte for byte, nil and
// empty alike.
var snapshotFieldDiffs = map[string]func(a, b *replica.Snapshot) string{
	"Knowledge": func(a, b *replica.Snapshot) string {
		ka, kb := vclock.NewKnowledge(), vclock.NewKnowledge()
		if errA, errB := ka.UnmarshalBinary(a.Knowledge), kb.UnmarshalBinary(b.Knowledge); errA != nil || errB != nil {
			return fmt.Sprintf("undecodable: %v; %v", errA, errB)
		}
		if !ka.Equal(kb) {
			return fmt.Sprintf("%s vs %s", ka, kb)
		}
		return ""
	},
	"Entries": func(a, b *replica.Snapshot) string {
		ea, eb := entryMap(a.Entries), entryMap(b.Entries)
		if len(ea) != len(eb) {
			return fmt.Sprintf("count %d vs %d", len(ea), len(eb))
		}
		for id, x := range ea {
			y, ok := eb[id]
			if !ok {
				return fmt.Sprintf("%s missing on one side", id)
			}
			if d := diffEntries(x, y); d != "" {
				return fmt.Sprintf("%s: %s", id, d)
			}
		}
		return ""
	},
	"OwnAddresses":    func(a, b *replica.Snapshot) string { return diffStrings(a.OwnAddresses, b.OwnAddresses) },
	"FilterAddresses": func(a, b *replica.Snapshot) string { return diffStrings(a.FilterAddresses, b.FilterAddresses) },
	"PolicyState": func(a, b *replica.Snapshot) string {
		if string(a.PolicyState) != string(b.PolicyState) {
			return fmt.Sprintf("%d bytes vs %d bytes", len(a.PolicyState), len(b.PolicyState))
		}
		return ""
	},
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

// diffStrings compares string slices as sets, treating nil and empty alike.
func diffStrings(a, b []string) string {
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	if !slices.Equal(as, bs) {
		return fmt.Sprintf("%v vs %v", a, b)
	}
	return ""
}
