// Allocation budgets for the batch path: counts, not clocks. A bulk batch's
// frame is reserved once, never regrown, and recycled, so a warm write
// allocates nothing; a batch over the wire limit costs nothing; a whole pull
// over loopback allocates a small multiple of the payload it moves.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package transport

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/wire"
)

const (
	bulkItems   = 256
	bulkPayload = 1 << 10
)

// bulkSource is dtnbench's bulk-first-contact server in small: an epidemic
// node holding bulkItems 1 KiB messages for other people.
func bulkSource(tb testing.TB) *replica.Replica {
	tb.Helper()
	src := replica.New(replica.Config{ID: "server", OwnAddresses: []string{"user:server"}, Policy: epidemic.New(0)})
	for i := 0; i < bulkItems; i++ {
		src.CreateItem(item.Metadata{
			Source: "user:server", Destinations: []string{fmt.Sprintf("user:far%d", i%97)}, Kind: "message",
		}, make([]byte, bulkPayload))
	}
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

// A frame's buffer is recycled as soon as the frame is written: a warm write
// allocates nothing. A cold one — the pools drained by two collections —
// allocates the buffer once, and its size class wastes at most a quarter of
// the frame.
func TestResponseFrameAllocatesOnce(t *testing.T) {
	resp := bulkResponse(t)
	w := newWireIO(replay(nil), 0)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := w.writeResponse(resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm %d × %d B response write allocates %.0f times, want 0", bulkItems, bulkPayload, allocs)
	}

	w = newWireIO(replay(nil), 0)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := w.writeResponse(resp)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if w.bytesOut < bulkItems*bulkPayload {
		t.Fatalf("frame of %d bytes cannot hold the batch", w.bytesOut)
	}
	if large, bytes := largeAllocs(&before, &after), after.TotalAlloc-before.TotalAlloc; large != 1 || bytes > uint64(w.bytesOut)*5/4+1024 {
		t.Errorf("a cold write of a %d-byte frame made %d large allocations, %d bytes in all; want one buffer of at most 1.25 × the frame", w.bytesOut, large, bytes)
	}
}

// The probe takeSession runs before it reuses a parked session — a
// non-blocking peek — allocates nothing once the session has been probed:
// its callback, result and one-byte buffer live in the session.
func TestQuietAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := netDial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	w := newWireIO(conn, 0)
	newDialer(t).parkSession(sessionKey{"probe", ln.Addr().String(), 0}, w, nil, time.Now())
	w.quiet()
	allocs := testing.AllocsPerRun(100, func() {
		if !w.quiet() {
			t.Fatal("an open, idle loopback session probed unsound")
		}
	})
	if allocs != 0 {
		t.Errorf("probing a parked session allocates %.1f/op, budget 0", allocs)
	}
}

// largeAllocs counts the allocations between two MemStats readings that were
// too large for the runtime's size classes (32 KiB): a frame buffer, not the
// wrapper or the pool's own per-collection bookkeeping.
func largeAllocs(before, after *runtime.MemStats) uint64 {
	n := after.Mallocs - before.Mallocs
	for i := range after.BySize {
		n -= after.BySize[i].Mallocs - before.BySize[i].Mallocs
	}
	return n
}

func TestOversizedBatchRefusedBeforeEncoding(t *testing.T) {
	resp := bulkResponse(t)
	w := newWireIO(replay(nil), 64<<10)
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = w.writeResponse(resp)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "outgoing frame") {
		t.Fatalf("a 256 KiB batch under a 64 KiB limit: %v, want the encode-side cap", err)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 16<<10 {
		t.Errorf("refusing the batch allocated %d bytes; the frame must not be built first", spent)
	}
	if w.bytesOut != 0 {
		t.Errorf("refused batch left %d bytes on the wire", w.bytesOut)
	}
}

func TestBulkPullAllocatesLittle(t *testing.T) {
	dl := newDialer(t)
	addr, _ := serve(t, bulkSource(t), 0)
	pull := func() uint64 {
		d := freshDialer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := dl.Encounter(d, addr, 0, testTimeout, DialOptions{})
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
	// Warm the bulk frame's class as a busy node's is: one buffer per P
	// and two to spare, so neither end misses while the other holds one,
	// whichever Ps the scheduler runs them on (a P's private slot is
	// invisible to the others).
	bulk := bulkResponse(t)
	frame := 5 + wire.SyncResponseSize(bulk, replica.BatchBytes(bulk))
	spare := make([]*frameBuf, runtime.GOMAXPROCS(0)+2)
	for i := range spare {
		spare[i] = getFrame(frame)
	}
	for _, f := range spare {
		putFrame(f)
	}
	// Both ends run in this process. The server's frame and the dialer's
	// read buffer come warm from the pools; the dialer's copy of each
	// payload is the one payload-sized cost left.
	if spent, budget := pull(), uint64(2*bulkItems*bulkPayload); spent > budget {
		t.Errorf("one %d × %d B pull allocated %d bytes in all, budget %d (2 × payload)", bulkItems, bulkPayload, spent, budget)
	}
}

// BenchmarkPullBatch is one bulk first contact over loopback, both ends in
// this process; B/op is the number to watch.
func BenchmarkPullBatch(b *testing.B) {
	dl := newDialer(b)
	addr, _ := serve(b, bulkSource(b), 0)
	b.ReportAllocs()
	b.SetBytes(bulkItems * bulkPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dl.Encounter(freshDialer(), addr, 0, testTimeout, DialOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
