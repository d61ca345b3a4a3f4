package store

import (
	"fmt"

	"replidtn/internal/item"
)

// EntrySnapshot is the serializable form of one stored entry, including the
// arrival order that drives FIFO eviction. Its transient is the map form
// (item.TransientMap), converted from and to the entry's value here.
type EntrySnapshot struct {
	Item      *item.Item
	Transient item.TransientMap
	Relay     bool
	Local     bool
	Arrival   uint64
}

// snapshotEntry deep-copies one entry into its serializable form.
func snapshotEntry(e *Entry) EntrySnapshot {
	return EntrySnapshot{
		Item:      e.Item.Clone(),
		Transient: e.Transient.Map(),
		Relay:     e.Relay,
		Local:     e.Local,
		Arrival:   e.arrival,
	}
}

// Snapshot captures every entry in deterministic order together with the
// arrival counter, for durable persistence. The ordered index supplies the
// order; no sorting happens here.
func (s *Store) Snapshot() ([]EntrySnapshot, uint64) {
	out := make([]EntrySnapshot, 0, len(s.entries))
	s.index.ascend(func(e *Entry) bool {
		out = append(out, snapshotEntry(e))
		return true
	})
	return out, s.nextArrival
}

// Restore replaces the store's contents from a snapshot. It fails if the
// snapshot violates the arrival counter, duplicates an item ID, or gives two
// entries one arrival (a live store never does, and FIFO eviction would then
// pick between them at random); on failure the store is left unchanged.
func (s *Store) Restore(entries []EntrySnapshot, nextArrival uint64) error {
	fresh := make(map[item.ID]*Entry, len(entries))
	arrivals := make(map[uint64]item.ID, len(entries))
	for _, es := range entries {
		if es.Item == nil {
			return fmt.Errorf("store: snapshot entry without item")
		}
		if _, dup := fresh[es.Item.ID]; dup {
			return fmt.Errorf("store: duplicate snapshot entry %s", es.Item.ID)
		}
		if es.Arrival > nextArrival {
			return fmt.Errorf("store: snapshot arrival %d beyond counter %d", es.Arrival, nextArrival)
		}
		if other, dup := arrivals[es.Arrival]; dup {
			return fmt.Errorf("store: snapshot entries %s and %s share arrival %d", other, es.Item.ID, es.Arrival)
		}
		arrivals[es.Arrival] = es.Item.ID
		relay := es.Relay
		if es.Local {
			relay = false
		}
		fresh[es.Item.ID] = &Entry{
			Item:      es.Item.Clone(),
			Transient: es.Transient.Transient(),
			Relay:     relay,
			Local:     es.Local,
			arrival:   es.Arrival,
		}
	}
	// Wholesale replacement: back out the outgoing population's gauge
	// contribution before rebuildIndexes recounts the restored one.
	if s.metrics != nil {
		s.metrics.Live.Add(-int64(s.liveCount))
		s.metrics.Relay.Add(-int64(s.relayCount))
		s.metrics.Tombstones.Add(-int64(s.TombstoneLen()))
	}
	s.entries = fresh
	s.nextArrival = nextArrival
	s.rebuildIndexes()
	return nil
}
