// Allocation budget for sizing a response frame before encoding it: counts,
// not clocks. The sizer runs once per batch item, ahead of the encode it
// sizes the buffer for.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package wire

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
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
