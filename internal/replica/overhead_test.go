package replica_test

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// wireBatchItem builds a batch item with trace-realistic metadata (address
// lengths, timestamps, transient routing state) and a payload of the given
// size, for measuring real encoded frame costs.
func wireBatchItem(n uint64, payload int) replica.BatchItem {
	return replica.BatchItem{
		Item: &item.Item{
			ID:      item.ID{Creator: "bus07", Num: n},
			Version: vclock.Version{Replica: "bus07", Seq: n},
			Meta: item.Metadata{
				Source:       "user:17",
				Destinations: []string{"user:42"},
				Kind:         "message",
				Created:      86400 + int64(n),
				Expires:      86400 + int64(n) + 43200,
			},
			Payload: make([]byte, payload),
		},
		Transient: item.TransientMap{item.FieldTTL: 7}.Transient(),
	}
}

// TestMetadataOverheadCoversEncodedFrame pins the byte-budget model to the
// wire: BatchBytes charges payload + metadataOverhead per batch item, and
// budgets overrun if that underestimates what the transport actually encodes.
// The test encodes sync-response frames differing by exactly one item and
// checks the marginal cost never exceeds the per-item charge, with and
// without payload. (An external test: internal/wire imports this package.)
func TestMetadataOverheadCoversEncodedFrame(t *testing.T) {
	encoded := func(n, payload int) int {
		resp := &replica.SyncResponse{SourceID: "bus07"}
		for i := 0; i < n; i++ {
			resp.Items = append(resp.Items, wireBatchItem(uint64(i+1), payload))
		}
		buf, err := wire.AppendSyncResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		return len(buf)
	}
	for _, payload := range []int{0, 100, 1000} {
		one := wireBatchItem(1, payload)
		charged := int(replica.BatchBytes(&replica.SyncResponse{Items: []replica.BatchItem{one}})) - payload
		overhead := encoded(9, payload) - encoded(8, payload) - payload
		if overhead > charged {
			t.Errorf("payload %d: encoded marginal item overhead %dB exceeds the %dB per-item charge — byte budgets underestimate",
				payload, overhead, charged)
		}
		if overhead <= 0 {
			t.Errorf("payload %d: marginal overhead %dB not positive — measurement broken", payload, overhead)
		}
		t.Logf("payload %d: marginal overhead %dB of %dB charged", payload, overhead, charged)
	}
}
