package wire

import (
	"bytes"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
)

// benchResponse builds the representative sync payload the codec encodes: a
// 16-item batch of 1 KiB messages with per-copy transients plus the learned
// knowledge — the shape one encounter leg ships when budgets allow a full
// batch.
func benchResponse(tb testing.TB) *replica.SyncResponse {
	tb.Helper()
	know := vclock.NewKnowledge()
	items := make([]replica.BatchItem, 16)
	for i := range items {
		it := &item.Item{
			ID:      item.ID{Creator: "bus042", Num: uint64(i + 1)},
			Version: vclock.Version{Replica: "bus042", Seq: uint64(i + 1)},
			Meta: item.Metadata{
				Source:       "user:src",
				Destinations: []string{"user:dst"},
				Kind:         "message",
				Created:      100,
				Expires:      4000,
			},
			Payload: bytes.Repeat([]byte{byte(i)}, 1024),
		}
		know.Add(it.Version)
		items[i] = replica.BatchItem{
			Item:      it,
			Transient: item.Transient{}.Set(item.FieldHops, 2), //lint:allow transientleak -- benchmark fixture: the policy-mediated transmit transient is an explicit wire field
		}
	}
	return &replica.SyncResponse{
		SourceID:         "bus042",
		Items:            items,
		LearnedKnowledge: know,
	}
}

// BenchmarkSyncResponseCodec measures the frame body codec on the
// representative sync response — the numbers BENCH_sync.json records for the
// frame envelope.
func BenchmarkSyncResponseCodec(b *testing.B) {
	resp := benchResponse(b)

	b.Run("binary-encode", func(b *testing.B) {
		var buf []byte
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err = AppendSyncResponse(buf[:0], resp) //lint:allow transientleak -- benchmark fixture batch, not host state
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "wireB/frame")
	})

	b.Run("binary-decode", func(b *testing.B) {
		data, err := AppendSyncResponse(nil, resp) //lint:allow transientleak -- benchmark fixture batch, not host state
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSyncResponse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
