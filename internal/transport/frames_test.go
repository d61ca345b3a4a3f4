package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
)

// Regression tests for the per-frame wire cap: a frame whose length
// prefix exceeds MaxWireBytes must be rejected before the body is buffered
// (decode side, both roles), and a local batch too large for the cap must
// fail the encounter before anything reaches the connection (encode side,
// both roles).

// TestServeRejectsOversizedFrameHeader: a peer that completes the hello
// exchange and then claims a frame bigger than the server's wire cap
// is cut off on the length prefix alone — before the server buffers a single
// body byte — and counted as a validation rejection.
func TestServeRejectsOversizedFrameHeader(t *testing.T) {
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	srv.MaxWireBytes = 4 << 10
	srv.Metrics = &obs.TransportMetrics{}
	errCh := make(chan error, 1)
	srv.OnError = func(err error) { errCh <- err }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w, err := openHostile(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.Close()
	// A frame header claiming 1 GiB against a 4 KiB cap.
	if _, err := w.conn.Write(hugeHeader); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("server error does not name the wire limit: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not reject the oversized frame header")
	}
	if got := srv.Metrics.ValidationRejected.Value(); got != 1 {
		t.Errorf("ValidationRejected = %d, want 1", got)
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("oversized frame left %d items in the store", total)
	}
}

// TestDialerRejectsOversizedFrameHeader mirrors the header check on the
// dialing side: a listener claiming an over-cap frame fails the encounter on
// the prefix, classified as a validation rejection, with nothing applied.
func TestDialerRejectsOversizedFrameHeader(t *testing.T) {
	dl := newDialer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		w := newWireIO(conn, 0)
		if _, err := w.readHello(); err != nil {
			served <- err
			return
		}
		if err := w.writeHello("fake"); err != nil {
			served <- err
			return
		}
		// Ignore the dialer's leg-1 request; answer with a hostile header.
		_, err = conn.Write(hugeHeader)
		served <- err
	}()

	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	knowBefore := a.Knowledge()
	m := &obs.TransportMetrics{}
	_, err = dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second,
		DialOptions{MaxWireBytes: 4 << 10, Metrics: m})
	if err == nil {
		t.Fatal("oversized frame header should fail the dialer")
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("dialer error does not name the wire limit: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	if got := m.ValidationRejected.Value(); got != 1 {
		t.Errorf("ValidationRejected = %d, want 1", got)
	}
	if !a.Knowledge().Equal(knowBefore) {
		t.Error("oversized frame perturbed the dialer's knowledge")
	}
}

// TestServeEncodeSideFrameCap: a server whose own batch exceeds its wire cap
// fails the encounter at frame assembly — before a byte reaches the peer —
// instead of shipping a frame the peer (symmetric cap) is bound to reject.
func TestServeEncodeSideFrameCap(t *testing.T) {
	dl := newDialer(t)
	big := replica.New(replica.Config{ID: "big", OwnAddresses: []string{"addr:big"}})
	big.CreateItem(item.Metadata{
		Source: "addr:big", Destinations: []string{"addr:a"}, Kind: "message",
	}, make([]byte, 64<<10))
	srv := NewServer(big, 0)
	srv.MaxWireBytes = 4 << 10
	var mu sync.Mutex
	var serveErr error
	srv.OnError = func(err error) { mu.Lock(); serveErr = err; mu.Unlock() }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	if _, err := dl.Encounter(a, addr.String(), 0, 2*time.Second, DialOptions{}); err == nil {
		t.Fatal("over-cap response should fail the encounter")
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("dialer stored %d items from a rejected frame", total)
	}
	srv.Close()
	mu.Lock()
	defer mu.Unlock()
	if serveErr == nil || !strings.Contains(serveErr.Error(), "outgoing frame") {
		t.Errorf("server error is not the encode-side cap: %v", serveErr)
	}
}

// TestDialEncodeSideFrameCap mirrors the encode-side cap on the dialing
// side: the dialer's leg-2 batch exceeds its own cap and fails locally.
func TestDialEncodeSideFrameCap(t *testing.T) {
	dl := newDialer(t)
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	big := replica.New(replica.Config{ID: "big", OwnAddresses: []string{"addr:big"}})
	big.CreateItem(item.Metadata{
		Source: "addr:big", Destinations: []string{"addr:a"}, Kind: "message",
	}, make([]byte, 64<<10))
	_, err = dl.Encounter(big, addr.String(), 0, 2*time.Second, DialOptions{MaxWireBytes: 4 << 10})
	if err == nil {
		t.Fatal("over-cap batch should fail the dialer")
	}
	if !strings.Contains(err.Error(), "outgoing frame") {
		t.Errorf("dialer error is not the encode-side cap: %v", err)
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("server stored %d items from a failed encounter", total)
	}
}

// Every frame fits its size class, wastes at most a quarter of it above the
// 512-byte floor, and each class size maps back to its own pool — which is
// how putFrame recognises the buffers getFrame hands out. Past
// maxFrameScratch nothing is pooled.
func TestFrameClasses(t *testing.T) {
	sizes := map[*sync.Pool]int{}
	for n := 1; n <= maxFrameScratch; n += 1 + n/97 {
		size, pool := frameClass(n)
		if size < n || (n > 1<<minFrameShift && 4*size > 5*n) {
			t.Fatalf("a %d-byte frame gets a %d-byte class", n, size)
		}
		if again, p := frameClass(size); again != size || p != pool {
			t.Fatalf("class %d rounds to %d", size, again)
		}
		if prev, ok := sizes[pool]; ok && prev != size {
			t.Fatalf("classes %d and %d share a pool", prev, size)
		}
		sizes[pool] = size
	}
	if len(sizes) != len(framePools) {
		t.Errorf("%d of the %d pools reached", len(sizes), len(framePools))
	}
	if size, pool := frameClass(maxFrameScratch + 1); pool != nil || size != maxFrameScratch+1 {
		t.Errorf("a frame past maxFrameScratch gets class %d, pooled %v", size, pool != nil)
	}
}
