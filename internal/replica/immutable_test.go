package replica

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/spraywait"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// The rule of package item, executable: a stored *item.Item is never written
// after it is stored, so replicas in one process share it; and a batch handed
// to ApplyBatch is consumed, writing nothing the source still holds.

// frozen is a deep copy of one stored entry, to compare the entry with later.
type frozen struct {
	it *item.Item
	tr item.Transient
}

func freeze(e *store.Entry) frozen { return frozen{e.Item.Clone(), e.Transient} }

func (f frozen) check(t *testing.T, what string, e *store.Entry) {
	t.Helper()
	if e == nil {
		t.Fatalf("%s: entry is gone", what)
	}
	if !reflect.DeepEqual(e.Item, f.it) {
		t.Errorf("%s: stored item changed:\n got %+v\nwant %+v", what, e.Item, f.it)
	}
	if e.Transient != f.tr {
		t.Errorf("%s: stored transient changed: got %v, want %v", what, e.Transient.Map(), f.tr.Map())
	}
}

// sharedPair returns a source and a target that has pulled everything from
// it in process: a message for the target (two destinations, attrs), and the
// second version of a message for someone else, which the target relays.
func sharedPair(t *testing.T) (src, dst *Replica, ids []item.ID) {
	t.Helper()
	src = New(Config{ID: "src", OwnAddresses: []string{"addr:src"}, Policy: epidemic.New(0)})
	dst = New(Config{ID: "dst", OwnAddresses: []string{"addr:dst"}, Policy: epidemic.New(0), RelayCapacity: 1})
	direct := src.CreateItem(item.Metadata{
		Source: "addr:src", Destinations: []string{"addr:dst", "addr:x"}, Kind: "message",
		Attrs: map[string]string{"k": "v"},
	}, []byte("direct payload"))
	relayed, err := src.UpdateItem(send(src, "addr:src", "addr:far").ID, []byte("second version"))
	if err != nil {
		t.Fatal(err)
	}
	if res := Sync(src, dst, 0); res.Apply.Stored != 1 || res.Apply.Relayed != 1 {
		t.Fatalf("sync applied %+v, want one stored and one relayed", res.Apply)
	}
	return src, dst, []item.ID{direct.ID, relayed.ID}
}

// churn is everything a replica can do to what it stores: a new version, a
// tombstone, a re-homing that reclassifies every entry, and an incoming batch
// that overflows the relay partition.
func churn(t *testing.T, r *Replica, ids []item.ID) {
	t.Helper()
	if _, err := r.UpdateItem(ids[0], []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DeleteItem(ids[1]); err != nil {
		t.Fatal(err)
	}
	r.SetIdentity([]string{"addr:elsewhere"}, filter.NewAddresses("addr:elsewhere"))
	extra := New(Config{ID: "extra", OwnAddresses: []string{"addr:extra"}, Policy: epidemic.New(0)})
	send(extra, "addr:extra", "addr:nobody")
	send(extra, "addr:extra", "addr:nobody2")
	Sync(extra, r, 0)
}

func TestInProcessSyncSharesStoredItems(t *testing.T) {
	src, dst, ids := sharedPair(t)
	for _, id := range ids {
		s, d := src.Entry(id), dst.Entry(id)
		if s.Item != d.Item {
			t.Errorf("%s: target stores its own copy of the item, want the source's *item.Item", id)
		}
		if hops := d.Transient.Map()[item.FieldHops]; hops != 1 {
			t.Errorf("%s: received copy has hops = %d, want 1", id, hops)
		}
	}

	// Whatever one end does next, the other's stored bytes, Prior and
	// metadata stay as they were.
	atSrc := snapshotEntries(src)
	churn(t, dst, ids)
	if _, _, relay := dst.StoreLen(); relay > 1 {
		t.Fatalf("target holds %d relay entries over a capacity of 1: nothing was evicted", relay)
	}
	for id, f := range atSrc {
		f.check(t, fmt.Sprintf("source's %s after the target churned", id), src.Entry(id))
	}

	src, dst, ids = sharedPair(t)
	atDst := snapshotEntries(dst)
	churn(t, src, ids)
	for id, f := range atDst {
		f.check(t, fmt.Sprintf("target's %s after the source churned", id), dst.Entry(id))
	}
}

// snapshotEntries deep-copies every stored entry of r, keyed by item ID.
func snapshotEntries(r *Replica) map[item.ID]frozen {
	out := make(map[item.ID]frozen)
	for _, e := range r.store.Entries() {
		out[e.Item.ID] = freeze(e)
	}
	return out
}

func TestApplyBatchConsumesResponse(t *testing.T) {
	for name, policy := range map[string]func() routing.Policy{
		"epidemic":  func() routing.Policy { return epidemic.New(0) },
		"spraywait": func() routing.Policy { return spraywait.New(0) },
		"flood":     func() routing.Policy { return floodPolicy{} },
	} {
		t.Run(name, func(t *testing.T) {
			origin := New(Config{ID: "origin", OwnAddresses: []string{"addr:origin"}, Policy: policy()})
			src := New(Config{ID: "src", OwnAddresses: []string{"addr:src"}, Policy: policy()})
			dst := New(Config{ID: "dst", OwnAddresses: []string{"addr:dst"}, Policy: policy()})
			send(origin, "addr:origin", "addr:dst")
			send(origin, "addr:origin", "addr:far")
			Sync(origin, src, 0) // src now holds copies with hops = 1
			send(src, "addr:src", "addr:far")

			resp := src.HandleSyncRequest(dst.MakeSyncRequest(0))
			if len(resp.Items) != 3 {
				t.Fatalf("batch holds %d items, want 3", len(resp.Items))
			}
			// Serving may itself write the source's transients (a TTL stamp, a
			// halved allowance); applying the batch elsewhere may not.
			before := snapshotEntries(src)
			wantHops := make([]int, len(resp.Items))
			for i, bi := range resp.Items {
				wantHops[i] = bi.Transient.Map()[item.FieldHops] + 1
			}
			dst.ApplyBatch(resp)

			for i, bi := range resp.Items {
				e := dst.Entry(bi.Item.ID)
				if e == nil || e.Item != bi.Item {
					t.Fatalf("item %d: the batch's *item.Item was not adopted", i)
				}
				if got := e.Transient.Map()[item.FieldHops]; got != wantHops[i] {
					t.Errorf("item %d: stored hops = %d, want %d", i, got, wantHops[i])
				}
			}
			for id, f := range before {
				f.check(t, fmt.Sprintf("source's %s after the target applied the batch", id), src.Entry(id))
			}
			// And the target's later forwarding decisions stay its own.
			after := snapshotEntries(src)
			dst.HandleSyncRequest(New(Config{ID: "next", OwnAddresses: []string{"addr:next"}}).MakeSyncRequest(0))
			for id, f := range after {
				f.check(t, fmt.Sprintf("source's %s after the target served a sync", id), src.Entry(id))
			}
		})
	}
}

// TestServeReusesOnlyPulledResponses: a replica's serve fills the shell of a
// response it consumed in Pull, and no other — not a response handed to the
// exported ApplyBatch, whose caller keeps it, and not a cut link's partial
// response, which stays the carrier's and shares the source's item array.
func TestServeReusesOnlyPulledResponses(t *testing.T) {
	pair := func() (src, dst *Replica) {
		src = New(Config{ID: "src", OwnAddresses: []string{"addr:src"}, Policy: epidemic.New(0)})
		dst = New(Config{ID: "dst", OwnAddresses: []string{"addr:dst"}, Policy: epidemic.New(0)})
		for i := 0; i < 4; i++ {
			send(src, "addr:src", fmt.Sprintf("addr:far%d", i))
		}
		send(dst, "addr:dst", "addr:far")
		return src, dst
	}
	// serve has r serve fresh targets, each sent everything r holds, and
	// returns the first response.
	serve := func(r *Replica) (first *SyncResponse) {
		for i := 0; i < 3; i++ {
			resp := r.HandleSyncRequest(New(Config{ID: vclock.ReplicaID(fmt.Sprintf("next%d", i))}).MakeSyncRequest(0))
			if len(resp.Items) == 0 {
				t.Fatal("the later serve sent nothing")
			}
			first = cmp.Or(first, resp)
		}
		return first
	}
	hold := func(resp *SyncResponse) SyncResponse {
		c := *resp
		c.Items = slices.Clone(resp.Items)
		return c
	}
	check := func(what string, resp *SyncResponse, want SyncResponse) {
		t.Helper()
		if !reflect.DeepEqual(*resp, want) {
			t.Errorf("%s changed under the target's later serves:\n got %+v\nwant %+v", what, *resp, want)
		}
	}

	src, dst := pair()
	var pulled *SyncResponse
	dst.Pull(src.ID(), Budget{}, false, func(req *SyncRequest) (*SyncResponse, error) {
		pulled = src.HandleSyncRequest(req)
		return pulled, nil
	})
	if serve(dst) != pulled {
		t.Error("the target's serves after a pull did not reuse the pull's response")
	}

	src, dst = pair()
	resp := src.HandleSyncRequest(dst.MakeSyncRequest(0))
	want := hold(resp)
	dst.ApplyBatch(resp)
	serve(dst)
	check("a response applied through ApplyBatch", resp, want)

	src, dst = pair()
	var partial *SyncResponse
	carry := (&Link{Cutoff: 2}).carry(src)
	_, err := dst.Pull(src.ID(), Budget{}, false, func(req *SyncRequest) (*SyncResponse, error) {
		resp, err := carry(req)
		partial, want = resp, hold(resp)
		return resp, err
	})
	if err == nil || len(want.Items) != 2 {
		t.Fatalf("the cut pull returned %v after %d items, want a cut after 2", err, len(want.Items))
	}
	serve(dst)
	check("a cut link's partial response", partial, want)
}
