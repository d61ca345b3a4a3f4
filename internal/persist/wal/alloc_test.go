// Allocation budget for the record framing every journaled batch goes
// through: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package wal

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// TestRecordFramingAllocs pins appendBatchRecord into a warm buffer and
// readRecord over the frame it wrote at zero allocations.
func TestRecordFramingAllocs(t *testing.T) {
	e := &store.EntrySnapshot{Item: &item.Item{
		ID:      item.ID{Creator: "a", Num: 7},
		Version: vclock.Version{Replica: "a", Seq: 9},
		Meta:    item.Metadata{Source: "user:1", Destinations: []string{"user:2"}},
		Payload: []byte("payload bytes"),
	}, Transient: item.TransientMap{item.FieldTTL: 1}, Arrival: 3}
	muts := []replica.Mutation{
		{Kind: replica.MutPut, Entry: e, NextArrival: 4},
		{Kind: replica.MutLearn, Versions: []vclock.Version{e.Item.Version}, Seq: 4},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = appendBatchRecord(buf[:0], muts); err != nil {
			t.Fatal(err)
		}
		if rec, next, ok := readRecord(buf, 0); !ok || rec.kind != recBatch || next != len(buf) {
			t.Fatal("the framed batch did not read back")
		}
	})
	if allocs > 0 {
		t.Errorf("appendBatchRecord + readRecord allocate %.1f/op, budget 0", allocs)
	}
}
