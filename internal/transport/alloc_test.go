// Allocation budgets for the batch path: counts, not clocks. A bulk batch
// costs one frame allocation on the sending side and never regrows it; a
// batch over the wire limit costs nothing; a whole pull over loopback
// allocates a small multiple of the payload it moves.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package transport

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
)

const (
	bulkItems   = 256
	bulkPayload = 1 << 10
)

// bulkSource is dtnbench's bulk-first-contact server in small: an epidemic
// node holding bulkItems 1 KiB messages for other people, TTLs stamped.
func bulkSource(tb testing.TB) *replica.Replica {
	tb.Helper()
	src := replica.New(replica.Config{ID: "server", OwnAddresses: []string{"user:server"}, Policy: epidemic.New(0)})
	for i := 0; i < bulkItems; i++ {
		src.CreateItem(item.Metadata{
			Source: "user:server", Destinations: []string{fmt.Sprintf("user:far%d", i%97)}, Kind: "message",
		}, make([]byte, bulkPayload))
	}
	src.HandleSyncRequest(freshDialer().MakeSyncRequest(0)) // the first serve stamps every copy's TTL
	return src
}

func freshDialer() *replica.Replica {
	return replica.New(replica.Config{ID: "d", OwnAddresses: []string{"user:d"}, Policy: epidemic.New(0)})
}

func bulkResponse(tb testing.TB) *replica.SyncResponse {
	tb.Helper()
	resp := bulkSource(tb).HandleSyncRequest(freshDialer().MakeSyncRequest(0))
	if len(resp.Items) != bulkItems {
		tb.Fatalf("bulk batch holds %d items, want %d", len(resp.Items), bulkItems)
	}
	return resp
}

func TestResponseFrameAllocatesOnce(t *testing.T) {
	resp := bulkResponse(t)
	w := newWireIO(replay(nil), 0)
	allocs := testing.AllocsPerRun(20, func() {
		w.wbuf, w.bytesOut = nil, 0 // as on a fresh connection: no scratch to reuse
		if err := w.writeResponse(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("writing a %d × %d B response with no scratch buffer allocates %.0f times, want 1: the frame", bulkItems, bulkPayload, allocs)
	}
	if int64(cap(w.wbuf)) != w.bytesOut {
		t.Errorf("frame buffer holds %d bytes for a %d-byte frame: the reservation was not exact, or was outgrown", cap(w.wbuf), w.bytesOut)
	}
	if w.bytesOut < bulkItems*bulkPayload {
		t.Fatalf("frame of %d bytes cannot hold the batch", w.bytesOut)
	}
}

func TestOversizedBatchRefusedBeforeEncoding(t *testing.T) {
	resp := bulkResponse(t)
	w := newWireIO(replay(nil), 64<<10)
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = w.writeResponse(resp)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "outgoing frame") {
		t.Fatalf("a 256 KiB batch under a 64 KiB limit: %v, want the encode-side cap", err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 16<<10 {
		t.Errorf("refusing the batch allocated %d bytes; the frame must not be built first", spent)
	}
	if w.wbuf != nil || w.bytesOut != 0 {
		t.Errorf("refused batch left a %d-byte scratch buffer and %d bytes on the wire", cap(w.wbuf), w.bytesOut)
	}
}

func TestBulkPullAllocatesLittle(t *testing.T) {
	addr, _ := serve(t, bulkSource(t), 0)
	pull := func() uint64 {
		d := freshDialer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Encounter(d, addr, 0, testTimeout)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.BtoA.Apply.Relayed != bulkItems {
			t.Fatalf("pulled %+v, want %d relayed items", res.BtoA.Apply, bulkItems)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	pull() // listener, goroutines and the runtime's own first-use allocations
	// Both ends run in this process: the server's frame, the dialer's read
	// buffer and its copy of each payload are three of the five.
	if spent, budget := pull(), uint64(5*bulkItems*bulkPayload); spent > budget {
		t.Errorf("one %d × %d B pull allocated %d bytes in all, budget %d (5 × payload)", bulkItems, bulkPayload, spent, budget)
	}
}

// BenchmarkPullBatch is one bulk first contact over loopback, both ends in
// this process; B/op is the number to watch.
func BenchmarkPullBatch(b *testing.B) {
	addr, _ := serve(b, bulkSource(b), 0)
	b.ReportAllocs()
	b.SetBytes(bulkItems * bulkPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encounter(freshDialer(), addr, 0, testTimeout); err != nil {
			b.Fatal(err)
		}
	}
}
