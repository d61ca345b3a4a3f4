package replica_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

// itemSection returns how many bytes the items of resp take in the
// sync-response frame wire.AppendSyncResponse writes for it: the frame's
// length less that of the same frame with no items, the item count's
// varint growing from its one byte for zero.
func itemSection(t *testing.T, resp *replica.SyncResponse) int64 {
	t.Helper()
	frame, err := wire.AppendSyncResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	empty := *resp
	empty.Items = nil
	bare, err := wire.AppendSyncResponse(nil, &empty)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(frame) - len(bare) - (prim.SizeUvarint(uint64(len(resp.Items))) - 1))
}

// randomBatch draws a batch of up to 40 items exercising the whole item
// layout: tombstones, prior versions, attrs, up to five destinations, any
// subset of the transient fields at any value, priority classes and costs of
// either sign, and payloads of 0–2 KiB.
func randomBatch(rng *rand.Rand) *replica.SyncResponse {
	resp := &replica.SyncResponse{SourceID: "bus07", Truncated: rng.Intn(2) == 0}
	for i, n := 0, rng.Intn(41); i < n; i++ {
		it := &item.Item{
			ID:      item.ID{Creator: vclock.ReplicaID(fmt.Sprintf("bus%02d", rng.Intn(40))), Num: rng.Uint64() >> rng.Intn(64)},
			Version: vclock.Version{Replica: vclock.ReplicaID(fmt.Sprintf("bus%d", rng.Intn(400))), Seq: rng.Uint64() >> rng.Intn(64)},
			Deleted: rng.Intn(4) == 0,
			Meta: item.Metadata{
				Source:  fmt.Sprintf("user:%d", rng.Intn(1000)),
				Kind:    "message",
				Created: rng.Int63() - rng.Int63(),
				Expires: rng.Int63n(1 << 40),
			},
			Payload: make([]byte, rng.Intn(2049)),
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			it.Prior = append(it.Prior, vclock.Version{Replica: vclock.ReplicaID(fmt.Sprintf("bus%d", rng.Intn(40))), Seq: uint64(rng.Intn(1 << 20))})
		}
		for j, m := 0, rng.Intn(6); j < m; j++ {
			it.Meta.Destinations = append(it.Meta.Destinations, fmt.Sprintf("user:%d", rng.Intn(100000)))
		}
		if rng.Intn(3) == 0 {
			it.Meta.Attrs = map[string]string{"subject": fmt.Sprint(rng.Int()), "z": ""}
		}
		bi := replica.BatchItem{Item: it, Priority: routing.Priority{Class: routing.Class(rng.Intn(400) - 200), Cost: rng.NormFloat64()}}
		for f := range item.NumFields {
			if rng.Intn(2) == 0 {
				bi.Transient.Set(f, int(rng.Int31())-rng.Intn(1<<20))
			}
		}
		resp.Items = append(resp.Items, bi)
	}
	return resp
}

// TestBatchBytesIsTheEncodedItemSection pins the byte count every budget and
// SentBytes use to the wire: over random batches, BatchBytes equals the
// bytes the batch's items take in the sync-response frame, and no batch
// item is smaller than itemcodec.MinBatchItemSize, the size of a zero item
// — the bound selectorLimit derives a byte budget's item count from.
// (An external test: internal/wire imports this package.)
func TestBatchBytesIsTheEncodedItemSection(t *testing.T) {
	check := func(seed int64) bool {
		resp := randomBatch(rand.New(rand.NewSource(seed)))
		if got, want := replica.BatchBytes(resp), itemSection(t, resp); got != want {
			t.Errorf("seed %d: BatchBytes = %d over %d items, the frame's item section is %d bytes", seed, got, len(resp.Items), want)
			return false
		}
		for i := range resp.Items {
			one := &replica.SyncResponse{Items: resp.Items[i : i+1]}
			if n := replica.BatchBytes(one); n < int64(itemcodec.MinBatchItemSize) {
				t.Errorf("seed %d: item %d costs %d bytes, under the %d-byte minimum", seed, i, n, itemcodec.MinBatchItemSize)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	zero := &replica.SyncResponse{Items: []replica.BatchItem{{Item: &item.Item{}}}}
	if got := itemSection(t, zero); got != int64(itemcodec.MinBatchItemSize) {
		t.Errorf("a zero batch item encodes to %d bytes, MinBatchItemSize says %d", got, itemcodec.MinBatchItemSize)
	}
}
