package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

func newNode(id string, addrs ...string) *Replica {
	return New(Config{ID: vclock.ReplicaID(id), OwnAddresses: addrs})
}

func send(r *Replica, from, to string) *item.Item {
	return r.CreateItem(item.Metadata{
		Source:       from,
		Destinations: []string{to},
		Kind:         "message",
	}, []byte("payload"))
}

func TestDirectDelivery(t *testing.T) {
	var delivered []*item.Item
	a := newNode("a", "addr:a")
	b := New(Config{
		ID:           "b",
		OwnAddresses: []string{"addr:b"},
		OnDeliver:    func(it *item.Item) { delivered = append(delivered, it) },
	})
	msg := send(a, "addr:a", "addr:b")
	res := Sync(a, b, 0)
	if res.Sent != 1 || res.Apply.Delivered != 1 || res.Apply.Stored != 1 {
		t.Fatalf("unexpected sync result: %+v", res)
	}
	if len(delivered) != 1 || delivered[0].ID != msg.ID {
		t.Fatalf("delivery callback mismatch: %v", delivered)
	}
	if !b.HasItem(msg.ID) {
		t.Error("destination should store the message")
	}
}

func TestAtMostOnceAcrossRepeatedSyncs(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	send(a, "addr:a", "addr:b")
	for i := 0; i < 5; i++ {
		Sync(a, b, 0)
	}
	st := b.Stats()
	if st.ItemsReceived != 1 {
		t.Errorf("ItemsReceived = %d, want 1", st.ItemsReceived)
	}
	if st.Duplicates != 0 {
		t.Errorf("Duplicates = %d, want 0", st.Duplicates)
	}
	if st.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1 (exactly-once)", st.Delivered)
	}
}

func TestNoForwardingWithoutPolicy(t *testing.T) {
	a := newNode("a", "addr:a")
	rel := newNode("r", "addr:r")
	send(a, "addr:a", "addr:b")
	res := Sync(a, rel, 0)
	if res.Sent != 0 {
		t.Errorf("basic substrate must not transfer out-of-filter items, sent %d", res.Sent)
	}
}

func TestMultiAddressFilterForwarding(t *testing.T) {
	// §IV.B: a relay whose filter includes addr:b receives b's messages and
	// hands them to b later.
	a := newNode("a", "addr:a")
	rel := New(Config{
		ID:           "r",
		OwnAddresses: []string{"addr:r"},
		Filter:       filter.NewAddresses("addr:r", "addr:b"),
	})
	b := newNode("b", "addr:b")
	msg := send(a, "addr:a", "addr:b")
	if res := Sync(a, rel, 0); res.Sent != 1 || res.Apply.Stored != 1 {
		t.Fatalf("relay should pull the message in-filter: %+v", res)
	}
	if res := Sync(rel, b, 0); res.Apply.Delivered != 1 {
		t.Fatalf("relay should deliver to destination: %+v", res)
	}
	if !b.HasItem(msg.ID) {
		t.Error("destination missing message after relay")
	}
}

func TestSelfAddressedDeliversOnCreate(t *testing.T) {
	a := newNode("a", "addr:a")
	send(a, "addr:a", "addr:a")
	if a.Stats().Delivered != 1 {
		t.Error("self-addressed item should deliver at creation")
	}
}

func TestUpdateSupersedes(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	msg := send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	if _, err := a.UpdateItem(msg.ID, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	res := Sync(a, b, 0)
	if res.Sent != 1 {
		t.Fatalf("update should be sent, got %d items", res.Sent)
	}
	e := b.Entry(msg.ID)
	if string(e.Item.Payload) != "v2" {
		t.Errorf("payload = %q, want v2", e.Item.Payload)
	}
	// The superseded version is in knowledge: a replica that still holds v1
	// must not re-send it.
	if !b.Knowledge().Contains(msg.Version) {
		t.Error("superseded version must be folded into knowledge")
	}
}

func TestStaleVersionNotReaccepted(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	c := New(Config{ID: "c", OwnAddresses: []string{"addr:c"},
		Filter: filter.NewAddresses("addr:c", "addr:b")})
	msg := send(a, "addr:a", "addr:b")
	Sync(a, c, 0) // c holds v1 in-filter
	if _, err := a.UpdateItem(msg.ID, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	Sync(a, b, 0) // b gets v2 directly
	res := Sync(c, b, 0)
	if res.Sent != 0 {
		t.Errorf("stale v1 must not be sent to a replica knowing v2, sent %d", res.Sent)
	}
	if string(b.Entry(msg.ID).Item.Payload) != "v2" {
		t.Error("newer version lost")
	}
}

func TestDeleteTombstonePropagates(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	msg := send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	if _, err := b.DeleteItem(msg.ID); err != nil {
		t.Fatal(err)
	}
	res := Sync(b, a, 0)
	if res.Apply.Tombstones != 1 {
		t.Fatalf("tombstone should apply at the sender: %+v", res)
	}
	if a.HasItem(msg.ID) {
		t.Error("sender should discard deleted item content")
	}
}

func TestTombstoneImmunizesAgainstStaleCopy(t *testing.T) {
	// d learns the tombstone before ever seeing the live item; the live copy
	// held by a relay must then never be accepted.
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	rel := New(Config{ID: "r", OwnAddresses: []string{"addr:r"},
		Filter: filter.NewAddresses("addr:r", "addr:b")})
	msg := send(a, "addr:a", "addr:b")
	Sync(a, rel, 0) // relay holds live copy
	Sync(a, b, 0)
	if _, err := b.DeleteItem(msg.ID); err != nil {
		t.Fatal(err)
	}
	d := New(Config{ID: "d", OwnAddresses: []string{"addr:d"},
		Filter: filter.NewAddresses("addr:d", "addr:b")})
	Sync(b, d, 0) // d learns tombstone first
	res := Sync(rel, d, 0)
	if res.Apply.Stored != 0 && res.Apply.Superseded == 0 {
		t.Errorf("stale live copy must not resurrect a deleted item: %+v", res)
	}
	if e := d.Entry(msg.ID); e != nil && !e.Item.Deleted {
		t.Error("deleted item resurrected at d")
	}
}

// floodPolicy forwards everything at normal priority (minimal test policy).
type floodPolicy struct{}

func (floodPolicy) Name() string                                 { return "flood" }
func (floodPolicy) GenerateReq() routing.Request                 { return nil }
func (floodPolicy) ProcessReq(vclock.ReplicaID, routing.Request) {}
func (floodPolicy) ToSend(*store.Entry, routing.Target) (routing.Priority, item.Transient) {
	return routing.Priority{Class: routing.ClassNormal}, item.Transient{}
}

func TestPolicyForwardingStoresRelay(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	rel := New(Config{ID: "r", OwnAddresses: []string{"addr:r"}, Policy: floodPolicy{}})
	b := newNode("b", "addr:b")
	msg := send(a, "addr:a", "addr:b")
	res := Sync(a, rel, 0)
	if res.Apply.Relayed != 1 {
		t.Fatalf("policy-forwarded item should be stored as relay: %+v", res)
	}
	if res := Sync(rel, b, 0); res.Apply.Delivered != 1 {
		t.Fatalf("relay must deliver to destination via filter match: %+v", res)
	}
	if !b.HasItem(msg.ID) {
		t.Error("multi-hop delivery failed")
	}
}

func TestHopsIncrementPerHop(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	r1 := New(Config{ID: "r1", OwnAddresses: []string{"addr:r1"}, Policy: floodPolicy{}})
	r2 := New(Config{ID: "r2", OwnAddresses: []string{"addr:r2"}, Policy: floodPolicy{}})
	msg := send(a, "addr:a", "addr:z")
	Sync(a, r1, 0)
	Sync(r1, r2, 0)
	if got := r1.Entry(msg.ID).Transient.Map()[item.FieldHops]; got != 1 {
		t.Errorf("hops at first relay = %d, want 1", got)
	}
	if got := r2.Entry(msg.ID).Transient.Map()[item.FieldHops]; got != 2 {
		t.Errorf("hops at second relay = %d, want 2", got)
	}
}

func TestBandwidthTruncationByPriority(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	b := newNode("b", "addr:b")
	send(a, "addr:a", "addr:x") // out-of-filter for b
	want := send(a, "addr:a", "addr:b")
	send(a, "addr:a", "addr:y")
	req := b.MakeSyncRequest(1)
	resp := a.HandleSyncRequest(req)
	if len(resp.Items) != 1 || !resp.Truncated {
		t.Fatalf("expected truncated single-item batch, got %d items", len(resp.Items))
	}
	if resp.Items[0].Item.ID != want.ID {
		t.Errorf("filter-matching item must be transmitted first, got %s", resp.Items[0].Item.ID)
	}
	b.ApplyBatch(resp)
	if !b.HasItem(want.ID) {
		t.Error("destination missing its message")
	}
}

func TestRelayCapacityEviction(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	rel := New(Config{ID: "r", OwnAddresses: []string{"addr:r"},
		Policy: floodPolicy{}, RelayCapacity: 2})
	for i := 0; i < 5; i++ {
		send(a, "addr:a", fmt.Sprintf("addr:x%d", i))
	}
	res := Sync(a, rel, 0)
	if res.Apply.Evicted != 3 {
		t.Errorf("Evicted = %d, want 3", res.Apply.Evicted)
	}
	_, _, relay := rel.StoreLen()
	if relay != 2 {
		t.Errorf("relay population = %d, want 2", relay)
	}
}

func TestSenderCopyExemptFromEviction(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"},
		Policy: floodPolicy{}, RelayCapacity: 1})
	own := send(a, "addr:a", "addr:z") // local, out-of-filter, exempt
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: floodPolicy{}})
	send(b, "addr:b", "addr:y1")
	send(b, "addr:b", "addr:y2")
	Sync(b, a, 0)
	if !a.HasItem(own.ID) {
		t.Error("sender's own message must never be evicted")
	}
	_, _, relay := a.StoreLen()
	if relay != 1 {
		t.Errorf("relay population = %d, want 1", relay)
	}
}

func TestSetIdentityDeliversHeldRelay(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	n := New(Config{ID: "n", OwnAddresses: []string{"user:1"}, Policy: floodPolicy{}})
	msg := send(a, "addr:a", "user:9")
	Sync(a, n, 0) // n holds it as relay
	delivered := n.SetIdentity([]string{"user:9"}, nil)
	if len(delivered) != 1 || delivered[0].ID != msg.ID {
		t.Fatalf("SetIdentity should deliver held item, got %v", delivered)
	}
	// Re-applying the same identity must not deliver again.
	if again := n.SetIdentity([]string{"user:9"}, nil); len(again) != 0 {
		t.Errorf("repeated SetIdentity re-delivered: %v", again)
	}
	if n.Stats().Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", n.Stats().Delivered)
	}
}

func TestUpdateMissingItem(t *testing.T) {
	a := newNode("a", "addr:a")
	if _, err := a.UpdateItem(item.ID{Creator: "x", Num: 1}, nil); err == nil {
		t.Error("updating a missing item should fail")
	}
	if _, err := a.DeleteItem(item.ID{Creator: "x", Num: 1}); err == nil {
		t.Error("deleting a missing item should fail")
	}
}

func TestEncounterSharedBudget(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	send(a, "addr:a", "addr:b")
	send(b, "addr:b", "addr:a")
	res := Encounter(a, b, 1)
	total := res.AtoB.Sent + res.BtoA.Sent
	if total != 1 {
		t.Errorf("per-encounter budget violated: %d items moved", total)
	}
}

func TestEncounterUnlimited(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	send(a, "addr:a", "addr:b")
	send(b, "addr:b", "addr:a")
	res := Encounter(a, b, 0)
	if res.AtoB.Apply.Delivered != 1 || res.BtoA.Apply.Delivered != 1 {
		t.Errorf("both directions should deliver: %+v", res)
	}
}

// TestPropEventualConsistencyRandomSchedules drives random full-replication
// sync schedules over small replica groups and checks both eventual
// consistency (everyone converges once a spanning set of syncs happens) and
// the at-most-once invariant (zero duplicate receipts anywhere).
func TestPropEventualConsistencyRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		nodes := make([]*Replica, n)
		for i := range nodes {
			nodes[i] = New(Config{
				ID:           vclock.ReplicaID(fmt.Sprintf("n%d", i)),
				OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
				Filter:       filter.All{},
			})
		}
		items := 0
		for i, nd := range nodes {
			for j := 0; j < 1+rng.Intn(3); j++ {
				send(nd, fmt.Sprintf("addr:%d", i), fmt.Sprintf("addr:%d", rng.Intn(n)))
				items++
			}
		}
		// Random gossip for a while, then a deterministic ring pass to
		// guarantee a connected synchronization path.
		for k := 0; k < 10*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				Sync(nodes[i], nodes[j], 0)
			}
		}
		for round := 0; round < 2; round++ {
			for i := range nodes {
				Sync(nodes[i], nodes[(i+1)%n], 0)
				Sync(nodes[(i+1)%n], nodes[i], 0)
			}
		}
		for i, nd := range nodes {
			total, live, _ := nd.StoreLen()
			if live != items || total != items {
				t.Fatalf("seed %d: node %d has %d/%d items, want %d", seed, i, live, total, items)
			}
			if d := nd.Stats().Duplicates; d != 0 {
				t.Fatalf("seed %d: node %d saw %d duplicates", seed, i, d)
			}
		}
		for i := 1; i < n; i++ {
			if !nodes[0].Knowledge().Equal(nodes[i].Knowledge()) {
				t.Fatalf("seed %d: knowledge diverged at node %d", seed, i)
			}
		}
	}
}

func TestByteBudgetTruncation(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	b := newNode("b", "addr:b")
	for i := 0; i < 4; i++ {
		a.CreateItem(item.Metadata{
			Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
		}, make([]byte, 100))
	}
	// Each item encodes to 145 bytes (its 100-byte payload, 45 of metadata
	// and batch-item framing); 400 bytes admit two items.
	res := pullBudget(a, b, Budget{Bytes: 400})
	if res.Sent != 2 || !res.Truncated {
		t.Fatalf("sent %d items (truncated=%v), want 2 truncated", res.Sent, res.Truncated)
	}
	if res.SentBytes != 290 {
		t.Errorf("SentBytes = %d, want 290", res.SentBytes)
	}
	// Remaining items arrive on later syncs; nothing is lost.
	pullBudget(a, b, Budget{Bytes: 400})
	if _, live, _ := b.StoreLen(); live != 4 {
		t.Errorf("b holds %d items, want 4", live)
	}
}

// TestByteBudgetSendsSmallItems pulls 40 empty messages under a budget of
// exactly their encoded bytes: all 40 must cross. A serve retains only as
// many candidates as the budget pays for at the smallest batch item the wire
// encodes, so a bound derived from a typical item's size would cut it short.
func TestByteBudgetSendsSmallItems(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: floodPolicy{}})
	for i := 0; i < 40; i++ {
		a.CreateItem(item.Metadata{Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message"}, nil)
	}
	all := pullBudget(a, newNode("c", "addr:c"), Budget{})
	res := pullBudget(a, newNode("b", "addr:b"), Budget{Bytes: all.SentBytes})
	if all.Sent != 40 || res.Sent != 40 || res.Truncated {
		t.Errorf("a budget of %d bytes sent %d of %d items (truncated=%v), want all 40", all.SentBytes, res.Sent, all.Sent, res.Truncated)
	}
}

func TestByteBudgetAlwaysAdmitsOneItem(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	a.CreateItem(item.Metadata{
		Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
	}, make([]byte, 10000))
	res := pullBudget(a, b, Budget{Bytes: 16})
	if res.Sent != 1 {
		t.Errorf("a huge message must still cross a tiny-budget contact, sent %d", res.Sent)
	}
}

func TestEncounterSharedByteBudget(t *testing.T) {
	a := newNode("a", "addr:a")
	b := newNode("b", "addr:b")
	a.CreateItem(item.Metadata{
		Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
	}, make([]byte, 100))
	b.CreateItem(item.Metadata{
		Source: "addr:b", Destinations: []string{"addr:a"}, Kind: "message",
	}, make([]byte, 100))
	res := EncounterLink(a, b, Budget{Bytes: 200}, Link{Cutoff: -1})
	total := res.AtoB.SentBytes + res.BtoA.SentBytes
	if total > 200 && res.BtoA.Sent > 0 {
		t.Errorf("shared byte budget exceeded: %d bytes", total)
	}
	if res.AtoB.Sent != 1 || res.BtoA.Sent != 0 {
		t.Errorf("expected only the first leg to fit: %+v", res)
	}
}

// TestApplyBatchHostileShapesStayNearLinear hands a replica batches a peer
// can send within one frame, shaped to make a careless knowledge or store
// structure quadratic: 50k items from 50k distinct creators in descending
// order (a new knowledge row and a new version run per item), one item whose
// Prior names 50k creators in descending order, and one whose Prior names
// 200k seqs of one creator in descending order (an exception each). Each
// must be applied in under 2 s even under -race.
func TestApplyBatchHostileShapesStayNearLinear(t *testing.T) {
	msg := func(c vclock.ReplicaID, prior []vclock.Version) *item.Item {
		return &item.Item{
			ID:      item.ID{Creator: c, Num: 1},
			Version: vclock.Version{Replica: c, Seq: 1},
			Prior:   prior,
			Meta:    item.Metadata{Source: "addr:" + string(c), Destinations: []string{"addr:nobody"}, Kind: "message"},
		}
	}
	creators := func(n int) []vclock.ReplicaID {
		out := make([]vclock.ReplicaID, n)
		for i := range out {
			out[i] = vclock.ReplicaID(fmt.Sprintf("c%06d", n-i))
		}
		return out
	}
	var manyItems []BatchItem
	for _, c := range creators(50000) {
		manyItems = append(manyItems, BatchItem{Item: msg(c, nil)})
	}
	var priorCreators, priorSeqs []vclock.Version
	for _, c := range creators(50000) {
		priorCreators = append(priorCreators, vclock.Version{Replica: c, Seq: 1})
	}
	for i := 200000; i > 0; i-- {
		priorSeqs = append(priorSeqs, vclock.Version{Replica: "a", Seq: uint64(1 + 2*i)})
	}
	for _, tc := range []struct {
		name    string
		items   []BatchItem
		learned uint64
	}{
		{"50k items of 50k creators", manyItems, 50000},
		{"Prior of 50k creators", []BatchItem{{Item: msg("z", priorCreators)}}, 50001},
		{"Prior of 200k descending seqs", []BatchItem{{Item: msg("z", priorSeqs)}}, 200001},
	} {
		r := fullReplica("hub")
		start := time.Now()
		st := r.ApplyBatch(&SyncResponse{SourceID: "peer", Items: tc.items})
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: ApplyBatch took %v, want < 2s", tc.name, took)
		}
		if got := r.Knowledge().Count(); got != tc.learned || st.Relayed+st.Stored != len(tc.items) {
			t.Errorf("%s: learned %d versions and stored %d items, want %d and %d", tc.name, got, st.Relayed+st.Stored, tc.learned, len(tc.items))
		}
	}
}
