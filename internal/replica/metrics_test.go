package replica

import (
	"testing"

	"replidtn/internal/routing/epidemic"
	"replidtn/internal/vclock"
)

func newMeteredNode(id string, addrs ...string) *Replica {
	return New(Config{
		ID:           vclock.ReplicaID(id),
		OwnAddresses: addrs,
		Policy:       epidemic.New(10),
	})
}

// fleetStats sums the replicas' ledgers.
func fleetStats(rs ...*Replica) Stats {
	var sum Stats
	for _, r := range rs {
		sum.Add(r.Stats())
	}
	return sum
}

func TestMetricsMirrorSyncActivity(t *testing.T) {
	a := newMeteredNode("a", "addr:a")
	b := newMeteredNode("b", "addr:b")

	send(a, "addr:a", "addr:b")
	send(a, "addr:a", "addr:c") // relayed at b
	res := Sync(a, b, 0)
	if res.Sent != 2 {
		t.Fatalf("Sent = %d, want 2", res.Sent)
	}

	snap := fleetStats(a, b)
	if snap.SyncsInitiated != 1 || snap.SyncsServed != 1 {
		t.Errorf("syncs initiated/served = %d/%d, want 1/1", snap.SyncsInitiated, snap.SyncsServed)
	}
	if snap.ItemsSent != 2 || snap.ItemsApplied != 2 {
		t.Errorf("items sent/applied = %d/%d, want 2/2", snap.ItemsSent, snap.ItemsApplied)
	}
	if snap.Stored != 1 || snap.Relayed != 1 || snap.Delivered != 1 {
		t.Errorf("stored/relayed/delivered = %d/%d/%d, want 1/1/1",
			snap.Stored, snap.Relayed, snap.Delivered)
	}
	if snap.BatchesApplied != 1 || snap.BatchItems.Count != 1 || snap.BatchItems.Sum != 2 {
		t.Errorf("batches = %d, batch-items count/sum = %d/%d, want 1, 1/2",
			snap.BatchesApplied, snap.BatchItems.Count, snap.BatchItems.Sum)
	}
	if snap.Duplicates != 0 {
		t.Errorf("Duplicates = %d, want 0 (at-most-once)", snap.Duplicates)
	}
	bs := b.Stats()
	if got, want := bs.KnowledgeSize, b.Knowledge().Size(); got != want {
		t.Errorf("KnowledgeSize = %d, want %d", got, want)
	}

	// b's store occupancy is read from its store.
	if bs.Live != 2 || bs.Relay != 1 {
		t.Errorf("store occupancy live/relay = %d/%d, want 2/1", bs.Live, bs.Relay)
	}

	// Tombstone replication shows up in the tombstone counter.
	msg := b.Items()[0]
	if _, err := b.DeleteItem(msg.ID); err != nil {
		t.Fatalf("DeleteItem: %v", err)
	}
	Sync(b, a, 0)
	if got := fleetStats(a, b).Tombstones; got != 1 {
		t.Errorf("Tombstones = %d, want 1", got)
	}
}

func TestMetricsCountAbortedSyncs(t *testing.T) {
	a := newMeteredNode("a", "addr:a")
	b := newMeteredNode("b", "addr:b")
	for i := 0; i < 3; i++ {
		send(a, "addr:a", "addr:b")
	}
	res := EncounterLink(a, b, Budget{}, Link{Cutoff: 1})
	if !res.AtoB.Aborted {
		t.Fatalf("link cutoff should abort the first leg: %+v", res)
	}
	snap := fleetStats(a, b)
	if snap.SyncsAborted != 1 {
		t.Errorf("SyncsAborted = %d, want 1", snap.SyncsAborted)
	}
	if snap.BatchesApplied != 0 || snap.ItemsApplied != 0 {
		t.Errorf("aborted sync must apply nothing: batches=%d items=%d",
			snap.BatchesApplied, snap.ItemsApplied)
	}
}

func TestMetricsCountEvictions(t *testing.T) {
	a := newMeteredNode("a", "addr:a")
	b := New(Config{ // two relay items against capacity 1
		ID:            "b",
		OwnAddresses:  []string{"addr:b"},
		Policy:        epidemic.New(10),
		RelayCapacity: 1,
	})
	send(a, "addr:a", "addr:c")
	send(a, "addr:a", "addr:d")
	Sync(a, b, 0)
	snap := b.Stats()
	if snap.Relayed != 2 || snap.Evicted != 1 {
		t.Errorf("relayed/evictions = %d/%d, want 2/1", snap.Relayed, snap.Evicted)
	}
	if st := snap.Store(); st.Evictions != 1 || st.Relay != 1 {
		t.Errorf("store section evictions/relay = %d/%d, want 1/1", st.Evictions, st.Relay)
	}
}

// TestMetricsDisabledChangesNothing: reading the ledger is not part of the
// protocol; a sync between replicas whose Stats nobody reads behaves as any.
func TestMetricsDisabledChangesNothing(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	send(a, "addr:a", "addr:b")
	res := Sync(a, b, 0)
	if res.Sent != 1 || res.Apply.Stored != 1 {
		t.Fatalf("sync without metrics should behave identically: %+v", res)
	}
}

// TestStatsAddSumsEveryField: Add is field by field, so a ledger added to
// itself doubles every count, the batch-size buckets included.
func TestStatsAddSumsEveryField(t *testing.T) {
	a := newMeteredNode("a", "addr:a")
	b := newMeteredNode("b", "addr:b")
	send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	one := b.Stats()
	two := one
	two.Add(one)
	if two.ItemsReceived != 2*one.ItemsReceived || two.KnowledgeFullBytes != 2*one.KnowledgeFullBytes ||
		two.BatchItems.Buckets[1] != 2 || two.Live != 2*one.Live || one.BatchItems.Buckets[1] != 1 {
		t.Errorf("Add: %+v plus itself is %+v", one, two)
	}
}
