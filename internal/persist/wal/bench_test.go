package wal

// Benchmarks behind `make bench-wal` (results recorded in BENCH_wal.json):
// the per-mutation append cost a journaled replica pays — the price of
// continuous durability versus the snapshot backend's free mutations — and
// recovery time as a function of how much history sits in the live log,
// which is what the flushEvery knob trades against write amplification.
// BenchmarkCompaction, one segment merge, runs under `make bench`.

import (
	"errors"
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
)

// benchReplica builds a journaled replica over a fresh MemFS.
func benchReplica(b *testing.B, opts Options) (*replica.Replica, *DB, *MemFS) {
	b.Helper()
	fsys := NewMemFS()
	r := replica.New(replica.Config{ID: "bench", OwnAddresses: []string{"addr:bench"}})
	db, err := Open(fsys, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		b.Fatal(err)
	}
	if err := db.Attach(r); err != nil {
		b.Fatal(err)
	}
	return r, db, fsys
}

// BenchmarkWALAppend measures one journaled CreateItem: encode + append +
// fsync (MemFS, so the fsync is a memory watermark — the numbers isolate the
// WAL's own framing and bookkeeping cost from disk latency).
func BenchmarkWALAppend(b *testing.B) {
	payload := []byte("benchmark-payload-of-plausible-size-for-a-dtn-message")
	b.Run("noflush", func(b *testing.B) {
		r, db, _ := benchReplica(b, Options{flushEvery: -1, Metrics: &obs.WALMetrics{}})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.CreateItem(item.Metadata{Destinations: []string{"addr:x"}}, payload)
		}
		b.StopTimer()
		if err := db.Err(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(db.metrics.Bytes.Value())/float64(b.N), "walB/op")
	})
	b.Run("flush256", func(b *testing.B) {
		// The default shape: a memtable flush into a segment every 256
		// batches, size-tiered merges bounding the segment count. Amortized
		// cost of durability including the merges.
		r, db, _ := benchReplica(b, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.CreateItem(item.Metadata{Destinations: []string{"addr:x"}}, payload)
		}
		b.StopTimer()
		if err := db.Err(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkCompaction measures one merge of four segments of 1024 puts (100
// payload bytes each), every segment overwriting half of the previous one's
// IDs: read, k-way merge of the ID-sorted frames, write + fsync, manifest
// commit, input removal — the work a flush that triggers a merge adds. The
// bytes per op are the input segments' size; B/op is the number to watch.
func BenchmarkCompaction(b *testing.B) {
	const perSeg = 1024
	var segs [][]byte
	var names []string
	var sizes []int
	total := 0
	for s := 0; s < mergeWidth; s++ {
		var frames [][]byte
		for j := 0; j < perSeg; j++ {
			frames = append(frames, putFrame(b, uint64(s*perSeg/2+j), string(make([]byte, 100))))
		}
		seg := segment(b, frames...)
		segs, names, sizes = append(segs, seg), append(names, segName(uint64(s))), append(sizes, len(seg))
		total += len(seg)
	}
	fsys := NewMemFS()
	db, err := Open(fsys, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 {
			if err := fsys.Remove(db.man.Segments[0]); err != nil {
				b.Fatal(err)
			}
		}
		for k, name := range names {
			if err := rewrite(fsys, name, segs[k]); err != nil {
				b.Fatal(err)
			}
		}
		db.man = manifest{Segments: names, Log: logName(0)}
		db.segSizes = append(db.segSizes[:0], sizes...)
		b.StartTimer()
		if err := db.mergeLocked(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALRecovery measures Open+Load against a log holding n mutation
// batches — the restart-latency side of the flushEvery trade-off.
func BenchmarkWALRecovery(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("log=%d", n), func(b *testing.B) {
			r, db, fsys := benchReplica(b, Options{flushEvery: -1})
			for i := 0; i < n; i++ {
				r.CreateItem(item.Metadata{Destinations: []string{"addr:x"}}, []byte("recovery-bench"))
			}
			if err := db.Err(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db2, err := Open(fsys, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db2.Load(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
