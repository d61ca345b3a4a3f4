package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"replidtn/internal/obs"
	"replidtn/internal/replica"
)

// A session outlives its encounter: these tests pin what a recurring pair
// pays per encounter once the dialer reuses its connection, and every way a
// session must end instead of carrying the next encounter.

// testListener wraps a TCP listener for a server: its first fail Accepts
// return EMFILE, it counts the connections it accepts, and wrap, when set,
// stands in front of each.
type testListener struct {
	net.Listener
	fail    atomic.Int32
	accepts atomic.Int32
	wrap    func(n int32, c net.Conn) net.Conn
}

func (l *testListener) Accept() (net.Conn, error) {
	if l.fail.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.accepts.Add(1)
	if l.wrap != nil {
		c = l.wrap(n, c)
	}
	return c, nil
}

// listenVia starts srv's accept loop on a testListener on loopback, the way
// Listen starts it on its own listener.
func listenVia(t *testing.T, srv *Server, fail int32, wrap func(n int32, c net.Conn) net.Conn) (string, *testListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &testListener{Listener: inner, wrap: wrap}
	ln.fail.Store(fail)
	srv.mu.Lock()
	srv.listener = ln
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.acceptLoop(ln)
	t.Cleanup(func() { srv.Close() })
	return inner.Addr().String(), ln
}

// A transient Accept failure — the descriptor table full for a moment — must
// not leave the server deaf: the next encounter is served.
func TestAcceptSurvivesTransientError(t *testing.T) {
	addr, _ := listenVia(t, NewServer(node(t, "a", "addr:a"), 0), 1, nil)
	if _, err := Encounter(node(t, "b", "addr:b"), addr, 0, 2*time.Second); err != nil {
		t.Fatalf("encounter after one failed Accept: %v", err)
	}
}

// N encounters of one pair cost one accept and one hello exchange per side:
// 7 frames on the first encounter, 5 on each later one. The pair ends exactly
// as the same encounters run in process leave it.
func TestSessionReuse(t *testing.T) {
	const n = 5
	a, b := node(t, "a", "addr:a"), node(t, "b", "addr:b")
	la, lb := node(t, "a", "addr:a"), node(t, "b", "addr:b")
	srv := NewServer(a, 0)
	srvM, dialM := &obs.TransportMetrics{}, &obs.TransportMetrics{}
	srv.Metrics = srvM
	addr, ln := listenVia(t, srv, 0, nil)
	for i := 0; i < n; i++ {
		for _, r := range []*replica.Replica{a, la} {
			sendMsg(r, "addr:a", "addr:b")
		}
		for _, r := range []*replica.Replica{b, lb} {
			sendMsg(r, "addr:b", "addr:a")
		}
		before := dialM.FramesRead.Value() + dialM.FramesWritten.Value()
		if _, err := EncounterOpts(b, addr, 0, testTimeout, DialOptions{Metrics: dialM}); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
		replica.Encounter(lb, la, 0)
		want := int64(5)
		if i == 0 {
			want = 7
		}
		if got := dialM.FramesRead.Value() + dialM.FramesWritten.Value() - before; got != want {
			t.Errorf("encounter %d: %d frames, want %d", i, got, want)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Errorf("%d encounters took %d accepts, want 1", n, got)
	}
	ss, ds := srvM.Snapshot(), dialM.Snapshot()
	if ss.SessionsOpened != 1 || ds.SessionsOpened != 1 || ss.EncountersServed != n || ds.EncountersDialed != n {
		t.Errorf("server %+v, dialer %+v: want one session and %d encounters each", ss, ds, n)
	}
	if ss.BytesRead != ds.BytesWritten || ss.BytesWritten != ds.BytesRead || ss.FramesRead != ds.FramesWritten {
		t.Errorf("the two ends disagree: server %+v, dialer %+v", ss, ds)
	}
	compareSchedules(t, []string{"a", "b"},
		map[string]*replica.Replica{"a": la, "b": lb}, map[string]*replica.Replica{"a": a, "b": b})
}

// An encounter run without metrics leaves nothing on its session for the
// next, metered encounter to count: that one reports its own 5 frames and
// exactly the bytes the server's span for it records.
func TestUnmeteredEncounterLeavesNoCounts(t *testing.T) {
	srv := NewServer(node(t, "a", "addr:a"), 0)
	srvM := &obs.TransportMetrics{}
	srv.Metrics = srvM
	addr, _ := listenVia(t, srv, 0, nil)
	b := node(t, "b", "addr:b")
	if _, err := Encounter(b, addr, 0, testTimeout); err != nil {
		t.Fatal(err)
	}
	m := &obs.TransportMetrics{}
	if _, err := EncounterOpts(b, addr, 0, testTimeout, DialOptions{Metrics: m}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.FramesRead.Value() + m.FramesWritten.Value(); got != 5 {
		t.Errorf("metered encounter counted %d frames, want 5", got)
	}
	spans := srvM.Spans.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("server recorded %d spans, want 2", len(spans))
	}
	if last := spans[1]; m.BytesWritten.Value() != last.BytesIn || m.BytesRead.Value() != last.BytesOut {
		t.Errorf("metered encounter counted %d/%d bytes written/read; the server's span %d/%d",
			m.BytesWritten.Value(), m.BytesRead.Value(), last.BytesIn, last.BytesOut)
	}
}

// A listener that restarts on the same address between two encounters of a
// summaries-on pair leaves the dialer a dead session. The probe at checkout
// finds it before a request is built, so the next encounter runs on a fresh
// session with no aborted sync and no fallback round.
func TestListenerRestartDialsFresh(t *testing.T) {
	a, b := summaryNode("a", "addr:a", true), summaryNode("b", "addr:b", true)
	srv := NewServer(a, 0)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := bound.String()
	for round := 0; round < 2; round++ {
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		if _, err := Encounter(b, addr, 0, testTimeout); err != nil {
			t.Fatalf("encounter %d: %v", round, err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv = NewServer(a, 0)
		if _, err := srv.Listen(addr); err != nil {
			t.Fatal(err)
		}
	}
	defer srv.Close()
	for _, r := range []*replica.Replica{a, b} {
		if st := r.Stats(); st.SyncsAborted != 0 || st.SummaryFallbacks != 0 || st.Delivered != 2 || st.Duplicates != 0 {
			t.Errorf("%s: %+v, want 2 delivered, no aborted sync, no fallback", r.ID(), st)
		}
	}
}

// The server cuts a session idle past IOTimeout; the dialer's probe sees it
// closed and the next encounter runs on a new session.
func TestIdleSessionExpires(t *testing.T) {
	srv := NewServer(node(t, "a", "addr:a"), 0)
	srv.IOTimeout = 100 * time.Millisecond
	m := &obs.TransportMetrics{}
	srv.Metrics = m
	addr, ln := listenVia(t, srv, 0, nil)
	b := node(t, "b", "addr:b")
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(300 * time.Millisecond)
		}
		if _, err := Encounter(b, addr, 0, testTimeout); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
	}
	if got := m.SessionsOpened.Value(); got != 2 || ln.accepts.Load() != 2 {
		t.Errorf("%d sessions over %d accepts, want 2 and 2", got, ln.accepts.Load())
	}
}

// Close does not wait out an idle session's IOTimeout.
func TestCloseCutsIdleSession(t *testing.T) {
	addr, srv := serve(t, node(t, "a", "addr:a"), 0)
	if _, err := Encounter(node(t, "b", "addr:b"), addr, 0, testTimeout); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close took %v with one idle session open", took)
	}
}

// Between encounters the server takes only a sync request: a dialer that
// sends a second hello, or garbage, is refused with nothing applied.
func TestMidSessionHelloOrGarbageRefused(t *testing.T) {
	for name, frame := range map[string][]byte{
		"hello":   rawHello(helloMagic, protocolVersion, "b"),
		"garbage": []byte("not a frame stream"),
	} {
		t.Run(name, func(t *testing.T) {
			a := node(t, "a", "addr:a")
			srv := NewServer(a, 0)
			errc := make(chan error, 1)
			srv.OnError = func(err error) { errc <- err }
			bound, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			addr := bound.String()
			b := node(t, "b", "addr:b")
			sendMsg(b, "addr:b", "addr:a")
			if _, err := Encounter(b, addr, 0, testTimeout); err != nil {
				t.Fatal(err)
			}
			ds := takeSession(sessionKey{"b", addr, 0})
			if ds == nil {
				t.Fatal("no idle session cached after a clean encounter")
			}
			defer ds.close()
			total, _, _ := a.StoreLen()
			know := a.Knowledge()
			if _, err := ds.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-errc:
				if errClass(err) != "validation" {
					t.Errorf("server error %v is class %q, want validation", err, errClass(err))
				}
			case <-time.After(3 * time.Second):
				t.Fatal("server reported no error")
			}
			if err := expectClosed(ds.conn); err != nil {
				t.Error(err)
			}
			if got, _, _ := a.StoreLen(); got != total || !a.Knowledge().Equal(know) {
				t.Error("a refused frame perturbed the server's replica")
			}
		})
	}
}

// corruptConn replaces its nth write with a frame no honest peer sends.
type corruptConn struct {
	net.Conn
	writes, nth int
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == c.nth {
		return c.Conn.Write(rawFrame(frameSyncResponse, []byte{0xff}))
	}
	return c.Conn.Write(p)
}

// A listener that answers a session's first encounter honestly and its
// second with a malformed response fails that encounter with nothing
// applied; the third encounter dials a fresh session and completes.
func TestHostileListenerMidSession(t *testing.T) {
	a := node(t, "a", "addr:a")
	srv := NewServer(a, 0)
	// Encounter 1 writes hello, response, request, done; 5 is encounter 2's
	// response.
	addr, ln := listenVia(t, srv, 0, func(n int32, c net.Conn) net.Conn {
		if n == 1 {
			return &corruptConn{Conn: c, nth: 5}
		}
		return c
	})
	b := node(t, "b", "addr:b")
	m := &obs.TransportMetrics{}
	encounter := func() error {
		_, err := EncounterOpts(b, addr, 0, testTimeout, DialOptions{Metrics: m})
		return err
	}
	if err := encounter(); err != nil {
		t.Fatal(err)
	}
	msg := sendMsg(a, "addr:a", "addr:b")
	know := b.Knowledge()
	if err := encounter(); errClass(err) != "validation" {
		t.Fatalf("encounter over a corrupted response: %v, want a validation error", err)
	}
	if b.HasItem(msg.ID) || !b.Knowledge().Equal(know) {
		t.Error("the failed encounter applied something")
	}
	if err := encounter(); err != nil {
		t.Fatalf("encounter after the failure: %v", err)
	}
	if !b.HasItem(msg.ID) || ln.accepts.Load() != 2 || m.SessionsOpened.Value() != 2 {
		t.Errorf("after three encounters: item held %v, %d accepts, %d sessions; want true, 2, 2",
			b.HasItem(msg.ID), ln.accepts.Load(), m.SessionsOpened.Value())
	}
}

// Eight goroutines, two per replica ID, run 50 encounters each against one
// server. Sessions are never shared: no encounter fails, every message is
// delivered once, every store holds each version once, and once the dust
// settles each key holds one idle session and the server one open session
// per key. (Two concurrent encounters of one replica may both carry a
// version; ApplyBatch skips the second and counts it in Stats.Duplicates,
// with fresh connections as with sessions, so that counter is not asserted.)
func TestConcurrentSessions(t *testing.T) {
	const ids, perID, rounds, fromHub = 4, 2, 50, 10
	hub := node(t, "hub", "addr:hub")
	srv := NewServer(hub, 0)
	addr, _ := listenVia(t, srv, 0, nil)
	nodes := make([]*replica.Replica, ids)
	for i := range nodes {
		nodes[i] = node(t, fmt.Sprintf("c%d", i), fmt.Sprintf("addr:c%d", i))
		for j := 0; j < fromHub; j++ {
			sendMsg(hub, "addr:hub", fmt.Sprintf("addr:c%d", i))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, ids*perID)
	for g := 0; g < ids*perID; g++ {
		r := nodes[g%ids]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sendMsg(r, string("addr:"+r.ID()), "addr:hub")
				if _, err := Encounter(r, addr, 0, testTimeout); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every message reaches the hub on some encounter after its creation;
	// one last round collects the stragglers.
	for _, r := range nodes {
		if _, err := Encounter(r, addr, 0, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(r *replica.Replica) int { total, _, _ := r.StoreLen(); return total }
	if got, want := hub.Stats().Delivered, ids*perID*rounds; got != want || stored(hub) != want+ids*fromHub {
		t.Errorf("hub: %d delivered, %d stored; want %d and %d", got, stored(hub), want, want+ids*fromHub)
	}
	for _, r := range nodes {
		if got := r.Stats().Delivered; got != fromHub || stored(r) != perID*rounds+fromHub {
			t.Errorf("%s: %d delivered, %d stored; want %d and %d", r.ID(), got, stored(r), fromHub, perID*rounds+fromHub)
		}
	}
	idleMu.Lock()
	for _, r := range nodes {
		if idleSessions[sessionKey{string(r.ID()), addr, 0}] == nil {
			t.Errorf("%s: no idle session cached", r.ID())
		}
	}
	idleMu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		srv.mu.Lock()
		open := len(srv.sessions)
		srv.mu.Unlock()
		if open == ids {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server holds %d open sessions, want one per key (%d)", open, ids)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// takeSession's probe: a session the listener closed, or one holding unread
// bytes, is never handed out.
func TestProbeRejectsUnsoundSessions(t *testing.T) {
	for name, spoil := range map[string]func(peer net.Conn) error{
		"closed by the listener": func(peer net.Conn) error { return peer.Close() },
		"unread bytes":           func(peer net.Conn) error { _, err := peer.Write([]byte{0}); return err },
	} {
		t.Run(name, func(t *testing.T) {
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
			key := sessionKey{"probe", ln.Addr().String(), 0}
			w := newWireIO(conn, 0)
			w.peer = "p"
			parkSession(key, w, nil)
			if err := spoil(peer); err != nil {
				t.Fatal(err)
			}
			// Wait for loopback to deliver it.
			for deadline := time.Now().Add(2 * time.Second); quiet(conn) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if ds := takeSession(key); ds != nil {
				ds.close()
				t.Fatal("an unsound session was handed out")
			}
			if _, err := conn.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("the rejected session's connection is still open (write: %v)", err)
			}
		})
	}
}

// The cache holds at most maxIdleSessions; parking one more closes the one
// idle longest.
func TestIdleCacheEvictsOldest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	keys := make([]sessionKey, maxIdleSessions+1)
	for i := range keys {
		conn, err := netDial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = sessionKey{fmt.Sprintf("evict%d", i), ln.Addr().String(), 0}
		w := newWireIO(conn, 0)
		w.peer = "p"
		parkSession(keys[i], w, nil)
	}
	idleMu.Lock()
	size := len(idleSessions)
	idleMu.Unlock()
	if size > maxIdleSessions {
		t.Errorf("cache holds %d sessions, cap %d", size, maxIdleSessions)
	}
	if ds := takeSession(keys[0]); ds != nil {
		ds.close()
		t.Error("the oldest session survived an overfull cache")
	}
	for _, k := range keys[1:] {
		if ds := takeSession(k); ds == nil {
			t.Errorf("%s: evicted while younger than the oldest", k.self)
		} else {
			ds.close()
		}
	}
}
