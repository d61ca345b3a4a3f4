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
)

// TestSizeAllocs pins sizeItem and SyncResponseSize at zero allocations.
func TestSizeAllocs(t *testing.T) {
	it := testItem()
	know := vclock.NewKnowledge()
	know.Add(vclock.Version{Replica: "a", Seq: 9})
	resp := &replica.SyncResponse{SourceID: "a", LearnedKnowledge: know}
	for i := 0; i < 16; i++ {
		resp.Items = append(resp.Items, replica.BatchItem{Item: it, Transient: item.Transient{"ttl": 3}})
	}
	for _, b := range []struct {
		name string
		f    func()
	}{
		{"sizeItem", func() {
			if sizeItem(it) == 0 {
				t.Fatal("sizeItem returned 0")
			}
		}},
		{"SyncResponseSize", func() {
			if SyncResponseSize(resp) == 0 {
				t.Fatal("SyncResponseSize returned 0")
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, b.f); allocs > 0 {
			t.Errorf("%s allocates %.1f/op, budget 0", b.name, allocs)
		}
	}
}
