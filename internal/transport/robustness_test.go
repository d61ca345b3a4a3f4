package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
)

// TestServerSurvivesGarbageConnections fires random bytes, empty
// connections, and abrupt disconnects at a server and verifies it keeps
// serving well-formed encounters afterwards with unchanged state.
func TestServerSurvivesGarbageConnections(t *testing.T) {
	dl := newDialer(t)
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	a.CreateItem(item.Metadata{
		Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
	}, []byte("survives"))
	srv := NewServer(a, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			conn, err := net.DialTimeout("tcp", addr.String(), time.Second)
			if err != nil {
				return
			}
			defer conn.Close()
			switch i % 3 {
			case 0: // random garbage
				buf := make([]byte, 64+rng.Intn(512))
				rng.Read(buf)
				conn.Write(buf)
			case 1: // immediate disconnect
			case 2: // valid hello then garbage
				conn.Write(rawHello(helloMagic, protocolVersion, "x"))
				conn.Write([]byte{0xde, 0xad, 0xbe, 0xef})
			}
		}()
	}
	wg.Wait()

	// The server must still complete a well-formed encounter.
	b := replica.New(replica.Config{ID: "b", OwnAddresses: []string{"addr:b"}})
	res, err := dl.Encounter(b, addr.String(), 0, 5*time.Second, DialOptions{})
	if err != nil {
		t.Fatalf("encounter after abuse: %v", err)
	}
	if res.BtoA.Apply.Delivered != 1 {
		t.Errorf("delivery after abuse failed: %+v", res)
	}
	// Garbage must not have perturbed the replica.
	if total, live, _ := a.StoreLen(); total != 1 || live != 1 {
		t.Errorf("server replica store corrupted: %d/%d", total, live)
	}
	if a.Stats().Duplicates != 0 {
		t.Error("duplicates after abuse")
	}
}

// TestGarbageNeverPanics decodes adversarial inputs directly through the
// server handler path via raw connections and just asserts the process
// survives (the handler returns errors instead of panicking).
func TestGarbageNeverPanics(t *testing.T) {
	a := replica.New(replica.Config{ID: vclock.ReplicaID("a"), OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	var gotErr int
	var mu sync.Mutex
	srv.OnError = func(error) { mu.Lock(); gotErr++; mu.Unlock() }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		conn, err := net.DialTimeout("tcp", addr.String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		conn.Write(buf)
		conn.Close()
	}
	// Give handlers a moment to observe the closed connections.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := gotErr
		mu.Unlock()
		if n >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotErr == 0 {
		t.Error("expected at least one surfaced protocol error")
	}
}

// chokeConn forwards writes to a connection until its limit is exhausted,
// then fails mid-write — the wire sees a prefix of a valid frame, exactly
// what a link dying mid-batch produces.
type chokeConn struct {
	net.Conn
	limit int // -1 = unlimited
}

func (c *chokeConn) Write(p []byte) (int, error) {
	if c.limit < 0 {
		return c.Conn.Write(p)
	}
	if len(p) > c.limit {
		c.Conn.Write(p[:c.limit])
		c.limit = 0
		return 0, errTruncated
	}
	c.limit -= len(p)
	return c.Conn.Write(p)
}

var errTruncated = errors.New("link died mid-frame")

// TestTruncatedBatchAppliesNothing: a peer that dies mid-frame while sending
// its batch must leave the dialer's replica untouched — knowledge and store
// bit-identical — so the next encounter resumes the full exchange.
func TestTruncatedBatchAppliesNothing(t *testing.T) {
	dl := newDialer(t)
	peer := replica.New(replica.Config{ID: "peer", OwnAddresses: []string{"addr:peer"}})
	for i := 0; i < 5; i++ {
		peer.CreateItem(item.Metadata{
			Source: "addr:peer", Destinations: []string{"addr:a"}, Kind: "message",
		}, []byte(fmt.Sprintf("msg-%d", i)))
	}
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
		// Speak the protocol honestly up to the batch, then die mid-frame.
		cc := &chokeConn{Conn: conn, limit: -1}
		w := newWireIO(cc, 0)
		if _, err := w.readHello(); err != nil {
			served <- err
			return
		}
		if err := w.writeHello("peer"); err != nil {
			served <- err
			return
		}
		req, err := w.readRequest()
		if err != nil {
			served <- err
			return
		}
		resp := peer.HandleSyncRequest(req)
		cc.limit = 20 // the batch frame is cut after 20 bytes
		if _, err := w.writeResponse(resp); err != errTruncated {
			served <- fmt.Errorf("expected truncation, got %v", err)
			return
		}
		served <- nil
	}()

	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	knowBefore := a.Knowledge()
	res, err := dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second, DialOptions{})
	if err == nil {
		t.Fatal("truncated batch should fail the encounter")
	}
	if !res.BtoA.Aborted {
		t.Errorf("truncated pull not reported as aborted: %+v", res.BtoA)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake peer: %v", err)
	}
	if !a.Knowledge().Equal(knowBefore) {
		t.Errorf("truncated batch perturbed knowledge: %s -> %s", knowBefore, a.Knowledge())
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("truncated batch left %d items in the store", total)
	}
	if got := a.Stats().SyncsAborted; got != 1 {
		t.Errorf("truncated batch counted %d aborted syncs, want 1", got)
	}
	if a.Stats().Duplicates != 0 {
		t.Error("duplicates after truncated batch")
	}
}

// TestOversizedBatchRejected: a server with a small wire-byte budget cuts off
// a peer shipping an oversized batch, applies nothing, and keeps serving.
func TestOversizedBatchRejected(t *testing.T) {
	dl := newDialer(t)
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	srv.MaxWireBytes = 4 << 10
	var mu sync.Mutex
	var errs int
	srv.OnError = func(error) { mu.Lock(); errs++; mu.Unlock() }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	big := replica.New(replica.Config{ID: "big", OwnAddresses: []string{"addr:big"}})
	big.CreateItem(item.Metadata{
		Source: "addr:big", Destinations: []string{"addr:a"}, Kind: "message",
	}, make([]byte, 64<<10))
	if _, err := dl.Encounter(big, addr.String(), 0, 2*time.Second, DialOptions{}); err == nil {
		t.Fatal("oversized batch should fail the encounter")
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("oversized batch left %d items in the server store", total)
	}
	mu.Lock()
	n := errs
	mu.Unlock()
	if n == 0 {
		t.Error("server surfaced no error for the oversized batch")
	}
	// A reasonable peer still syncs fine afterwards.
	small := replica.New(replica.Config{ID: "small", OwnAddresses: []string{"addr:small"}})
	if _, err := dl.Encounter(small, addr.String(), 0, 2*time.Second, DialOptions{}); err != nil {
		t.Errorf("server unusable after oversized batch: %v", err)
	}
}

// TestSlowLorisCutOffByDeadline: a peer that connects and stalls is
// disconnected once the server's I/O deadline expires, and Close does not
// hang on the abandoned handler.
func TestSlowLorisCutOffByDeadline(t *testing.T) {
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	srv.IOTimeout = 200 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := netDial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble one hello byte and stall; the server must hang up on its own.
	conn.Write([]byte{0x1f})
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected server to close the stalled connection")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("server took %v to cut off a stalled peer", waited)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on a stalled handler")
	}
}

// TestNoGoroutineLeaksAfterAbuse: after garbage connections, stalled peers,
// and clean encounters, closing the server returns the process to its
// pre-test goroutine population.
func TestNoGoroutineLeaksAfterAbuse(t *testing.T) {
	dl := newDialer(t)
	before := runtime.NumGoroutine()
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	srv.IOTimeout = 200 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		conn, err := netDial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			conn.Write([]byte{0xba, 0xad})
			conn.Close()
		case 1:
			conn.Close()
		case 2:
			// Stalled: left open for the deadline to collect.
			defer conn.Close()
		}
	}
	b := replica.New(replica.Config{ID: "b", OwnAddresses: []string{"addr:b"}})
	if _, err := dl.Encounter(b, addr.String(), 0, 2*time.Second, DialOptions{}); err != nil {
		t.Fatalf("clean encounter amid abuse: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Handlers exit with Close; give the runtime a moment to reap them.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}
