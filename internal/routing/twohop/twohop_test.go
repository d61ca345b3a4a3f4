package twohop

import (
	"fmt"
	"math/rand"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
)

func node(id, addr string) *replica.Replica {
	return replica.New(replica.Config{
		ID:           vclock.ReplicaID(id),
		OwnAddresses: []string{addr},
		Policy:       New(),
	})
}

func sendMsg(r *replica.Replica, from, to string) *item.Item {
	return r.CreateItem(item.Metadata{
		Source: from, Destinations: []string{to}, Kind: "message",
	}, nil)
}

func TestSourceHandsToRelay(t *testing.T) {
	src := node("src", "addr:src")
	rel := node("rel", "addr:rel")
	msg := sendMsg(src, "addr:src", "addr:dst")
	res := replica.Sync(src, rel, 0)
	if res.Apply.Relayed != 1 {
		t.Fatalf("relay should receive the source's message: %+v", res)
	}
	if !rel.HasItem(msg.ID) {
		t.Error("relay missing message")
	}
}

func TestRelayNeverForwardsToThirdParty(t *testing.T) {
	src := node("src", "addr:src")
	rel := node("rel", "addr:rel")
	third := node("third", "addr:third")
	msg := sendMsg(src, "addr:src", "addr:dst")
	replica.Sync(src, rel, 0)
	res := replica.Sync(rel, third, 0)
	if res.Sent != 0 {
		t.Errorf("relay forwarded %d items to a third party", res.Sent)
	}
	if third.HasItem(msg.ID) {
		t.Error("message traveled more than two hops")
	}
}

func TestRelayDeliversToDestination(t *testing.T) {
	src := node("src", "addr:src")
	rel := node("rel", "addr:rel")
	dst := node("dst", "addr:dst")
	sendMsg(src, "addr:src", "addr:dst")
	replica.Sync(src, rel, 0)
	res := replica.Sync(rel, dst, 0)
	if res.Apply.Delivered != 1 {
		t.Errorf("relay must deliver via filter match: %+v", res)
	}
}

func TestNoopHooks(t *testing.T) {
	p := New()
	if p.Name() != "twohop" {
		t.Error("wrong name")
	}
	if p.GenerateReq() != nil {
		t.Error("two-hop should piggyback nothing")
	}
	p.ProcessReq("x", nil)
}

// TestPropHopBound checks under random gossip that no copy ever travels more
// than two hops: every holder's copy has hops <= 2, and only the destination
// or direct relays of the source hold copies.
func TestPropHopBound(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		nodes := make([]*replica.Replica, n)
		for i := range nodes {
			nodes[i] = node(fmt.Sprintf("n%d", i), fmt.Sprintf("addr:%d", i))
		}
		msg := sendMsg(nodes[0], "addr:0", fmt.Sprintf("addr:%d", n-1))
		for k := 0; k < 60; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				replica.Encounter(nodes[i], nodes[j], 0)
			}
		}
		for i, nd := range nodes {
			e := nd.Entry(msg.ID)
			if e == nil {
				continue
			}
			if hops := e.Transient.Map()[item.FieldHops]; hops > 2 {
				t.Fatalf("seed %d: node %d holds a %d-hop copy", seed, i, hops)
			}
		}
	}
}
