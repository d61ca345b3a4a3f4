package wire

import (
	"bytes"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
)

// benchResponse builds the representative sync payload the codec encodes: a
// batch of n 1 KiB messages with per-copy transients plus the learned
// knowledge — the shape one encounter leg ships when budgets allow a full
// batch.
func benchResponse(tb testing.TB, n int) *replica.SyncResponse {
	tb.Helper()
	know := vclock.NewKnowledge()
	items := make([]replica.BatchItem, n)
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
			Transient: item.TransientMap{item.FieldHops: 2}.Transient(),
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
// frame envelope — and on dtnbench's bulk-first-contact batch, 256 × 1 KiB
// (the bulk-* cases): there the encode goes into a frame reserved from the
// size pass, as the transport's does, so B/op is the frame and nothing else.
func BenchmarkSyncResponseCodec(b *testing.B) {
	benchCodec(b, "binary-", benchResponse(b, 16), false)
	benchCodec(b, "bulk-", benchResponse(b, 256), true)
}

func benchCodec(b *testing.B, prefix string, resp *replica.SyncResponse, fresh bool) {
	b.Run(prefix+"encode", func(b *testing.B) {
		var buf []byte
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if fresh {
				buf = make([]byte, 0, SyncResponseSize(resp, replica.BatchBytes(resp)))
			}
			buf, err = AppendSyncResponse(buf[:0], resp)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "wireB/frame")
	})

	b.Run(prefix+"decode", func(b *testing.B) {
		data, err := AppendSyncResponse(nil, resp)
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
