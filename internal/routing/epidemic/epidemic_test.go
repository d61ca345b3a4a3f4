package epidemic

import (
	"fmt"
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

func entryWithTTL(ttl int, has bool) *store.Entry {
	e := &store.Entry{Item: &item.Item{
		ID:   item.ID{Creator: "a", Num: 1},
		Meta: item.Metadata{Destinations: []string{"addr:x"}},
	}}
	if has {
		e.Transient.Set(item.FieldTTL, ttl)
	}
	return e
}

func TestNewDefaults(t *testing.T) {
	if New(0).initialTTL != DefaultTTL {
		t.Error("ttl <= 0 should select DefaultTTL")
	}
	if New(5).initialTTL != 5 {
		t.Error("explicit ttl should be kept")
	}
	if New(0).Name() != "epidemic" {
		t.Error("wrong name")
	}
}

// TestToSendReadsMissingTTLAsInitial: a copy created here carries no TTL.
// ToSend sends it with the initial budget less one and leaves the stored
// transient untouched, as it must to declare a fixed priority.
func TestToSendReadsMissingTTLAsInitial(t *testing.T) {
	p := New(10)
	e := entryWithTTL(0, false)
	pr, tr := p.ToSend(e, routing.Target{})
	if want := p.Plan(nil, routing.Target{})[0].Priority; pr != want {
		t.Fatalf("fresh item sent at %+v, want the plan's fixed priority %+v", pr, want)
	}
	if e.Transient != (item.Transient{}) {
		t.Errorf("stored transient written: %v", e.Transient.Map())
	}
	if got := tr.Map()[item.FieldTTL]; got != 9 {
		t.Errorf("transmitted TTL = %d, want 9", got)
	}
	if p.DestinationOnly(e) {
		t.Error("a copy with the initial budget is destination-only")
	}
}

func TestToSendDecrementsOnlyInFlightCopy(t *testing.T) {
	p := New(10)
	e := entryWithTTL(4, true)
	_, tr := p.ToSend(e, routing.Target{})
	if got := e.Transient.Map()[item.FieldTTL]; got != 4 {
		t.Errorf("stored TTL changed to %d; must stay 4", got)
	}
	if got := tr.Map()[item.FieldTTL]; got != 3 {
		t.Errorf("transmitted TTL = %d, want 3", got)
	}
}

func TestToSendSkipsExhaustedTTL(t *testing.T) {
	p := New(10)
	pr, _ := p.ToSend(entryWithTTL(0, true), routing.Target{})
	if pr.Class != routing.ClassSkip {
		t.Error("zero TTL must not be forwarded")
	}
}

func TestGenerateProcessReqAreNoops(t *testing.T) {
	p := New(0)
	if p.GenerateReq() != nil {
		t.Error("epidemic should piggyback nothing")
	}
	p.ProcessReq("x", nil) // must not panic
}

// chainNodes builds a line topology a0-a1-...-a{n-1} of epidemic nodes.
func chainNodes(n, ttl int) []*replica.Replica {
	nodes := make([]*replica.Replica, n)
	for i := range nodes {
		nodes[i] = replica.New(replica.Config{
			ID:           vclock.ReplicaID(fmt.Sprintf("n%d", i)),
			OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
			Policy:       New(ttl),
		})
	}
	return nodes
}

func TestHopBoundOnChain(t *testing.T) {
	// With TTL = 2 a message can traverse at most 2 policy hops from the
	// sender, so on a chain synced left-to-right it reaches node 2 but not
	// node 3 (except via filter match, which is exercised separately).
	nodes := chainNodes(5, 2)
	msg := nodes[0].CreateItem(item.Metadata{
		Source: "addr:0", Destinations: []string{"addr:99"}, Kind: "message",
	}, nil)
	for i := 0; i+1 < len(nodes); i++ {
		replica.Sync(nodes[i], nodes[i+1], 0)
	}
	for i, nd := range nodes {
		has := nd.HasItem(msg.ID)
		want := i <= 2
		if has != want {
			t.Errorf("node %d has=%v want=%v (TTL bound)", i, has, want)
		}
	}
}

func TestFilterMatchIgnoresTTL(t *testing.T) {
	// Delivery to the destination is a filter transfer, not a policy
	// forward: it happens even when the TTL is exhausted.
	a := replica.New(replica.Config{
		ID: "a", OwnAddresses: []string{"addr:a"}, Policy: New(1),
	})
	r := replica.New(replica.Config{
		ID: "r", OwnAddresses: []string{"addr:r"}, Policy: New(1),
	})
	b := replica.New(replica.Config{
		ID: "b", OwnAddresses: []string{"addr:b"}, Filter: filter.NewAddresses("addr:b"),
	})
	msg := a.CreateItem(item.Metadata{
		Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
	}, nil)
	replica.Sync(a, r, 0) // consumes the only policy hop
	if got := r.Entry(msg.ID).Transient.Map()[item.FieldTTL]; got != 0 {
		t.Fatalf("TTL at relay = %d, want 0", got)
	}
	res := replica.Sync(r, b, 0)
	if res.Apply.Delivered != 1 {
		t.Error("exhausted TTL must not block filter delivery")
	}
}

func TestFloodDeliversEveryone(t *testing.T) {
	// Star gossip with generous TTL floods all nodes.
	nodes := chainNodes(6, 10)
	msg := nodes[0].CreateItem(item.Metadata{
		Source: "addr:0", Destinations: []string{"addr:5"}, Kind: "message",
	}, nil)
	for round := 0; round < 2; round++ {
		for i := 0; i+1 < len(nodes); i++ {
			replica.Encounter(nodes[i], nodes[i+1], 0)
		}
	}
	for i, nd := range nodes {
		if !nd.HasItem(msg.ID) {
			t.Errorf("node %d missing flooded message", i)
		}
	}
	if nodes[5].Stats().Delivered != 1 {
		t.Error("destination should have exactly one delivery")
	}
}
