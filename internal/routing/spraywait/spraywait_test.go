package spraywait

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

func entryWithCopies(copies int, has bool) *store.Entry {
	e := &store.Entry{Item: &item.Item{
		ID:   item.ID{Creator: "a", Num: 1},
		Meta: item.Metadata{Destinations: []string{"addr:x"}},
	}}
	if has {
		e.Transient.Set(item.FieldCopies, copies)
	}
	return e
}

func TestNewDefaults(t *testing.T) {
	if New(0).initialCopies != DefaultCopies {
		t.Error("copies <= 0 should select DefaultCopies")
	}
	if New(0).Name() != "spraywait" {
		t.Error("wrong name")
	}
}

func TestBinarySprayHalvesBothSides(t *testing.T) {
	p := New(8)
	e := entryWithCopies(8, true)
	pr, tr := p.ToSend(e, routing.Target{})
	if pr.Class != routing.ClassNormal {
		t.Fatal("item with 8 copies must spray")
	}
	if got := e.Transient.Map()[item.FieldCopies]; got != 4 {
		t.Errorf("stored copies = %d, want 4", got)
	}
	if got := tr.Map()[item.FieldCopies]; got != 4 {
		t.Errorf("transmitted copies = %d, want 4", got)
	}
}

func TestOddCopiesSplit(t *testing.T) {
	p := New(8)
	e := entryWithCopies(5, true)
	_, tr := p.ToSend(e, routing.Target{})
	if got := e.Transient.Map()[item.FieldCopies]; got != 3 {
		t.Errorf("stored copies = %d, want 3 (keeps ceil)", got)
	}
	if got := tr.Map()[item.FieldCopies]; got != 2 {
		t.Errorf("transmitted copies = %d, want 2 (sends floor)", got)
	}
}

func TestWaitPhaseHoldsLastCopy(t *testing.T) {
	p := New(8)
	e := entryWithCopies(1, true)
	if pr, _ := p.ToSend(e, routing.Target{}); pr.Class != routing.ClassSkip {
		t.Error("a single copy must wait for the destination")
	}
}

func TestStampsMissingAllowance(t *testing.T) {
	p := New(6)
	e := entryWithCopies(0, false)
	_, tr := p.ToSend(e, routing.Target{})
	if got := e.Transient.Map()[item.FieldCopies]; got != 3 {
		t.Errorf("stored copies = %d, want 3 after stamping 6 and spraying", got)
	}
	if got := tr.Map()[item.FieldCopies]; got != 3 {
		t.Errorf("transmitted copies = %d, want 3", got)
	}
}

func TestNoopHooks(t *testing.T) {
	p := New(0)
	if p.GenerateReq() != nil {
		t.Error("spray and wait should piggyback nothing")
	}
	p.ProcessReq("x", nil)
}

// TestPropTotalCopiesNeverExceedAllocation sprays a message through random
// gossip and checks the binary-tree invariant: the total copy allowance
// across the network never exceeds the initial allocation, and every node
// holding the item holds at least one copy.
func TestPropTotalCopiesNeverExceedAllocation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		const initial = 8
		nodes := make([]*replica.Replica, n)
		for i := range nodes {
			nodes[i] = replica.New(replica.Config{
				ID:           vclock.ReplicaID(fmt.Sprintf("n%d", i)),
				OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
				Policy:       New(initial),
			})
		}
		msg := nodes[0].CreateItem(item.Metadata{
			Source: "addr:0", Destinations: []string{"addr:none"}, Kind: "message",
		}, nil)
		for k := 0; k < 40; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				replica.Encounter(nodes[i], nodes[j], 0)
			}
		}
		total := 0
		for _, nd := range nodes {
			e := nd.Entry(msg.ID)
			if e == nil {
				continue
			}
			c := e.Transient.Map()[item.FieldCopies]
			if c < 1 {
				return false
			}
			total += c
		}
		return total <= initial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSprayBoundsSpread(t *testing.T) {
	// With 4 initial copies the item can occupy at most 4 nodes, no matter
	// how much gossip happens.
	const n = 10
	nodes := make([]*replica.Replica, n)
	for i := range nodes {
		nodes[i] = replica.New(replica.Config{
			ID:           vclock.ReplicaID(fmt.Sprintf("n%d", i)),
			OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
			Policy:       New(4),
		})
	}
	msg := nodes[0].CreateItem(item.Metadata{
		Source: "addr:0", Destinations: []string{"addr:none"}, Kind: "message",
	}, nil)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			replica.Encounter(nodes[i], nodes[j], 0)
		}
	}
	holders := 0
	for _, nd := range nodes {
		if nd.HasItem(msg.ID) {
			holders++
		}
	}
	if holders > 4 {
		t.Errorf("%d holders exceed the 4-copy allocation", holders)
	}
	if holders < 2 {
		t.Errorf("spraying never happened (%d holders)", holders)
	}
}
