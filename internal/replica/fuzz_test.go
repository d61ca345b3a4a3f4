package replica

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
)

// FuzzHandleSyncRequest pins the serve to handleSyncRequestReference along
// an op sequence over one buildScenario world. data[0] picks the policy,
// data[1] the target's filter and data[2] the world's seed; each following
// pair of bytes is one op on twin sources: put, update or delete an item,
// serve at a budget of nothing, one item or k, or take a Snapshot and
// restore it into a fresh replica. After every serve the batches and the
// stores must agree. An op may fall on either side of the serve's one-way
// filing switch (DESIGN §4), and serveSeeds reach both. The seed corpus
// under testdata/fuzz is regenerated with
// `go test -tags corpusgen -run WriteFuzzCorpus ./internal/replica/`.
func FuzzHandleSyncRequest(f *testing.F) {
	for _, seed := range serveSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fuzzServe(data, &serveReach{}); err != nil {
			t.Fatal(err)
		}
	})
}

// serveSeeds are the seed op sequences: serves on both sides of the
// switch, puts after it and restores before and after it, under Epidemic
// (the store files by destination too), PROPHET (alone) and MaxProp (not at
// all), for an address filter and no filter.
func serveSeeds() map[string][]byte {
	const put, update, del, serve, restore = 0, 1, 2, 3, 4
	seeds := make(map[string][]byte)
	for _, pol := range []struct {
		name string
		n    byte
	}{{"none", 0}, {"epidemic", 1}, {"spray", 2}, {"prophet", 3}, {"maxprop", 5}} {
		for _, f := range []byte{0, filterNil} {
			name := fmt.Sprintf("%s-filter%d", pol.name, f)
			seeds[name+"-put-after-switch"] = []byte{pol.n, f, 7,
				serve, 0, serve, 1, put, 0, put, 1, update, 3, serve, 1, put, 2, serve, 5, del, 4, serve, 0}
			seeds[name+"-restore-around-switch"] = []byte{pol.n, f, 9,
				restore, 0, serve, 0, serve, 1, restore, 0, put, 1, serve, 1, restore, 0, serve, 4, serve, 0}
		}
	}
	return seeds
}

// serveReach counts the ops a sequence ran on either side of the switch.
type serveReach struct{ putsAfter, restoresBefore, restoresAfter int }

// fuzzServe runs the op sequence data encodes, counting into reach.
func fuzzServe(data []byte, reach *serveReach) error {
	if len(data) < 3 {
		return nil
	}
	sc := diffScenario{seed: int64(data[2]), policy: int(data[0] % 6), items: 40, knownFrac: 20, tombFrac: 5, expireFrac: 5, filter: int(data[1]) % len(diffFilters)}
	src, _, req := buildScenario(sc, false)
	ref, _, _ := buildScenario(sc, false)
	for i, ops := 0, data[3:]; len(ops) >= 2; i, ops = i+1, ops[2:] {
		arg, held := int(ops[1]), src.store.Entries()
		var err error
		switch ops[0] % 5 {
		case 0:
			meta := item.Metadata{Source: "addr:src", Destinations: []string{fmt.Sprintf("addr:%d", arg%10)}, Kind: "message"}
			src.CreateItem(meta, nil)
			ref.CreateItem(meta, nil)
			if src.planned {
				reach.putsAfter++
			}
		case 1, 2:
			if len(held) == 0 {
				continue
			}
			id, mutate := held[arg%len(held)].Item.ID, (*Replica).DeleteItem
			if ops[0]%5 == 1 {
				mutate = func(r *Replica, id item.ID) (*item.Item, error) { return r.UpdateItem(id, []byte{byte(arg)}) }
			}
			if _, err = mutate(src, id); err == nil {
				_, err = mutate(ref, id)
			}
		case 3:
			budget := []int{0, 1, 2 + arg/3%8}[arg%3]
			want, got := reqClone(req), reqClone(req)
			want.MaxItems, got.MaxItems = budget, budget
			if err = sameResponse(ref.handleSyncRequestReference(want), src.HandleSyncRequest(got)); err == nil {
				err = sameStores(ref, src)
			}
			if err != nil {
				err = fmt.Errorf("serve at a budget of %d: %v", budget, err)
			}
		case 4:
			if src.planned {
				reach.restoresAfter++
			} else {
				reach.restoresBefore++
			}
			if src, err = restored(src); err == nil {
				ref, err = restored(ref)
			}
		}
		if err != nil {
			return fmt.Errorf("op %d (%d, %d): %v", i, ops[0]%5, arg, err)
		}
	}
	return nil
}

// restored is a fresh replica of r's configuration, restored from r's
// Snapshot.
func restored(r *Replica) (*Replica, error) {
	snap, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	fresh := New(Config{ID: r.id, Policy: r.policy, Now: r.now})
	return fresh, fresh.RestoreSnapshot(snap)
}

// TestServeSeedsReachTheSwitch runs the seed corpus and demands that it put
// items after the serve's one-way filing switch and restore on both sides
// of it.
func TestServeSeedsReachTheSwitch(t *testing.T) {
	var reach serveReach
	for name, seed := range serveSeeds() {
		if err := fuzzServe(seed, &reach); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	t.Logf("%+v", reach)
	if reach.putsAfter < 10 || reach.restoresBefore < 10 || reach.restoresAfter < 10 {
		t.Errorf("seeds too thin to mean anything: %+v", reach)
	}
}
