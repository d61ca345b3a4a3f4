// Allocation budgets for sizing a response frame before encoding it — the
// sizer runs once per batch item, ahead of the encode it sizes the buffer
// for — for decoding one, and for a summary-mode encounter whose requests
// cross the codec: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package wire

import (
	"fmt"
	"runtime"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/itemcodec"
)

// TestSizeAllocs pins itemcodec.BatchItemSize and SyncResponseSize at zero
// allocations.
func TestSizeAllocs(t *testing.T) {
	it := testItem()
	tr := item.TransientMap{item.FieldTTL: 3}.Transient()
	know := vclock.NewKnowledge()
	know.Add(vclock.Version{Replica: "a", Seq: 9})
	resp := &replica.SyncResponse{SourceID: "a", LearnedKnowledge: know}
	for i := 0; i < 16; i++ {
		resp.Items = append(resp.Items, replica.BatchItem{Item: it, Transient: tr})
	}
	for _, b := range []struct {
		name string
		f    func()
	}{
		{"BatchItemSize", func() {
			if itemcodec.BatchItemSize(it, tr, 0) == 0 {
				t.Fatal("BatchItemSize returned 0")
			}
		}},
		{"SyncResponseSize", func() {
			if SyncResponseSize(resp, replica.BatchBytes(resp)) == 0 {
				t.Fatal("SyncResponseSize returned 0")
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, b.f); allocs > 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", b.name, allocs)
		}
	}
}

// bulkResponse is a 256-item batch shaped like a first-contact bulk pull:
// one creator, one destination, 1 KiB payloads, each copy carrying a TTL and
// a hop count.
func bulkResponse() *replica.SyncResponse {
	resp := &replica.SyncResponse{SourceID: "bulk-src"}
	for i := uint64(1); i <= 256; i++ {
		it := &item.Item{
			ID:      item.ID{Creator: "bulk-src", Num: i},
			Version: vclock.Version{Replica: "bulk-src", Seq: i},
			Meta: item.Metadata{
				Source:       "user:src",
				Destinations: []string{"user:dst"},
				Kind:         "message",
				Created:      100,
				Expires:      900,
			},
			Payload: make([]byte, 1024),
		}
		tr := item.TransientMap{item.FieldTTL: 9, item.FieldHops: 1}.Transient()
		resp.Items = append(resp.Items, replica.BatchItem{Item: it, Transient: tr})
	}
	return resp
}

// TestDecodeResponseAllocs pins DecodeSyncResponse of bulkResponse at its
// measured count. The transients decode into the batch items' own fields
// and cost nothing; what is left is about three allocations per item (the
// item, its destination list, its payload).
func TestDecodeResponseAllocs(t *testing.T) {
	data, err := AppendSyncResponse(nil, bulkResponse())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSyncResponse(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 776 {
		t.Errorf("DecodeSyncResponse of 256 items allocates %.1f/op, budget 776", allocs)
	}
}

// TestSummaryRoundTripAllocs pins a steady-state PROPHET encounter in
// summary mode whose requests cross the frame codec, as over TCP: each
// source decodes a routing delta and applies it into its spare baseline, so
// the bytes an encounter allocates do not grow with the vector's size — the
// same at 256 destinations as at 26, within the size of the destination
// names, and under one copy of the larger vector (24 B an entry).
func TestSummaryRoundTripAllocs(t *testing.T) {
	measure := func(n int) (allocs float64, bytes uint64) {
		clock := int64(0)
		now := func() int64 { return clock }
		params := prophet.DefaultParams()
		a := prophet.New(params, now, "addr:a")
		b := prophet.New(params, now, "addr:b")
		for i := 0; i < n; i++ { // both have met every destination
			peer := prophet.New(params, now, fmt.Sprintf("addr:%03d", i))
			id := vclock.ReplicaID(fmt.Sprintf("n%03d", i))
			a.ProcessReq(id, peer.GenerateReq())
			b.ProcessReq(id, peer.GenerateReq())
		}
		ra := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: a, SyncSummaries: true})
		rb := replica.New(replica.Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: b, SyncSummaries: true})
		var buf []byte
		carry := func(source *replica.Replica) replica.Carrier {
			return func(req *replica.SyncRequest) (*replica.SyncResponse, error) {
				var err error
				if buf, err = AppendSyncRequest(buf[:0], req); err != nil {
					return nil, err
				}
				got, err := DecodeSyncRequest(buf)
				if err != nil {
					return nil, err
				}
				return source.HandleSyncRequest(got), nil
			}
		}
		step := func() {
			clock += params.AgingUnit // one aging pass per encounter
			for _, leg := range [][2]*replica.Replica{{ra, rb}, {rb, ra}} {
				res, err := leg[1].Pull(leg[0].ID(), replica.Budget{}, false, carry(leg[0]))
				if err != nil || res.Fallback || res.Sent != 0 {
					t.Fatalf("steady-state pull: %+v, %v", res, err)
				}
			}
		}
		step() // first contact
		step()
		allocs = testing.AllocsPerRun(20, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 20
	}
	smallAllocs, small := measure(26)
	largeAllocs, large := measure(256)
	if smallAllocs != largeAllocs || large > small+64 || large >= 24*256 {
		t.Errorf("a steady-state PROPHET summary encounter through the codec allocates %v times (%d B) at 26 destinations and %v (%d B) at 256; want equal counts, bytes within 64 B, and < %d B",
			smallAllocs, small, largeAllocs, large, 24*256)
	}
}
