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
	dl := newDialer(t)
	addr, _ := listenVia(t, NewServer(node(t, "a", "addr:a"), 0), 1, nil)
	if _, err := dl.Encounter(node(t, "b", "addr:b"), addr, 0, 2*time.Second, DialOptions{}); err != nil {
		t.Fatalf("encounter after one failed Accept: %v", err)
	}
}

// N encounters of one pair cost one accept and one hello exchange per side:
// 7 frames on the first encounter, 5 on each later one. The pair ends exactly
// as the same encounters run in process leave it.
func TestSessionReuse(t *testing.T) {
	dl := newDialer(t)
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
		if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{Metrics: dialM}); err != nil {
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
	dl := newDialer(t)
	srv := NewServer(node(t, "a", "addr:a"), 0)
	srvM := &obs.TransportMetrics{}
	srv.Metrics = srvM
	addr, _ := listenVia(t, srv, 0, nil)
	b := node(t, "b", "addr:b")
	if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	m := &obs.TransportMetrics{}
	if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{Metrics: m}); err != nil {
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
	dl := newDialer(t)
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
		if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
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
	dl := newDialer(t)
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
		if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
	}
	if got := m.SessionsOpened.Value(); got != 2 || ln.accepts.Load() != 2 {
		t.Errorf("%d sessions over %d accepts, want 2 and 2", got, ln.accepts.Load())
	}
}

// Close does not wait out an idle session's IOTimeout.
func TestCloseCutsIdleSession(t *testing.T) {
	dl := newDialer(t)
	addr, srv := serve(t, node(t, "a", "addr:a"), 0)
	if _, err := dl.Encounter(node(t, "b", "addr:b"), addr, 0, testTimeout, DialOptions{}); err != nil {
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
	dl := newDialer(t)
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
			if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
				t.Fatal(err)
			}
			ds := dl.takeSession(sessionKey{"b", addr, 0}, time.Now())
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

// editConn passes its nth write through edit.
type editConn struct {
	net.Conn
	writes, nth int
	edit        func(p []byte) []byte
}

func (c *editConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == c.nth {
		p = c.edit(p)
	}
	return c.Conn.Write(p)
}

// strayFrame is a frame no honest peer sends: a sync response that does not
// decode.
var strayFrame = rawFrame(frameSyncResponse, []byte{0xff})

// A listener that answers a session's first encounter honestly and its
// second with a malformed response fails that encounter with nothing
// applied; the third encounter dials a fresh session and completes.
func TestHostileListenerMidSession(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	srv := NewServer(a, 0)
	// Encounter 1 writes hello, response, request, done; 5 is encounter 2's
	// response.
	addr, ln := listenVia(t, srv, 0, func(n int32, c net.Conn) net.Conn {
		if n == 1 {
			return &editConn{Conn: c, nth: 5, edit: func([]byte) []byte { return strayFrame }}
		}
		return c
	})
	b := node(t, "b", "addr:b")
	m := &obs.TransportMetrics{}
	encounter := func() error {
		_, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{Metrics: m})
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
	dl := newDialer(t)
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
				if _, err := dl.Encounter(r, addr, 0, testTimeout, DialOptions{}); err != nil {
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
		if _, err := dl.Encounter(r, addr, 0, testTimeout, DialOptions{}); err != nil {
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
	dl.mu.Lock()
	for _, r := range nodes {
		if dl.idle[sessionKey{string(r.ID()), addr, 0}] == nil {
			t.Errorf("%s: no idle session cached", r.ID())
		}
	}
	dl.mu.Unlock()
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
			d := newDialer(t)
			key := sessionKey{"probe", ln.Addr().String(), 0}
			w := newWireIO(conn, 0)
			w.peer = "p"
			d.parkSession(key, w, nil, time.Now())
			if err := spoil(peer); err != nil {
				t.Fatal(err)
			}
			// Wait for loopback to deliver it.
			for deadline := time.Now().Add(2 * time.Second); w.quiet() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if ds := d.takeSession(key, time.Now()); ds != nil {
				ds.close()
				t.Fatal("an unsound session was handed out")
			}
			if _, err := conn.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("the rejected session's connection is still open (write: %v)", err)
			}
		})
	}
}

// A Dialer holds at most maxIdleSessions; parking one more closes the one
// idle longest. The sessions are parked a millisecond apart on the Dialer's
// clock, the first the oldest.
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
	d := newDialer(t)
	start := time.Unix(1e9, 0)
	keys := make([]sessionKey, maxIdleSessions+1)
	for i := range keys {
		conn, err := netDial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = sessionKey{fmt.Sprintf("evict%d", i), ln.Addr().String(), 0}
		w := newWireIO(conn, 0)
		w.peer = "p"
		d.parkSession(keys[i], w, nil, start.Add(time.Duration(i)*time.Millisecond))
	}
	if size := len(d.idle); size != maxIdleSessions {
		t.Errorf("cache holds %d sessions, want the cap %d", size, maxIdleSessions)
	}
	now := start.Add(time.Second)
	if ds := d.takeSession(keys[0], now); ds != nil {
		ds.close()
		t.Error("the oldest session survived an overfull cache")
	}
	for _, k := range keys[1:] {
		if ds := d.takeSession(k, now); ds == nil {
			t.Errorf("%s: evicted while younger than the oldest", k.self)
		} else {
			ds.close()
		}
	}
}

// A parked session idle for more than half the default IOTimeout on the
// Dialer's clock is closed at checkout, with no wall-clock wait: the
// encounter at exactly half reuses the session, the one a nanosecond past it
// dials fresh.
func TestIdleAgeDialsFresh(t *testing.T) {
	srv := NewServer(node(t, "a", "addr:a"), 0)
	addr, ln := listenVia(t, srv, 0, nil)
	now := time.Unix(1e9, 0)
	dl := newDialer(t)
	dl.now = func() time.Time { return now }
	b, m := node(t, "b", "addr:b"), &obs.TransportMetrics{}
	for i, age := range []time.Duration{0, defaultIOTimeout / 2, defaultIOTimeout/2 + 1} {
		now = now.Add(age)
		if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{Metrics: m}); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
		if want := int32(max(i, 1)); ln.accepts.Load() != want {
			t.Errorf("after encounter %d (idle %v): %d accepts, want %d", i, age, ln.accepts.Load(), want)
		}
	}
	if got := m.SessionsOpened.Value(); got != 2 {
		t.Errorf("%d sessions opened, want 2", got)
	}
}

// A listener whose done frame arrives with a stray frame behind it, in one
// write, leaves bytes in the dialer's reader that the socket probe cannot
// see: the dialer closes that session instead of parking it, and the next
// encounter dials fresh and completes.
func TestStrayBytesAfterDoneNotParked(t *testing.T) {
	srv := NewServer(node(t, "a", "addr:a"), 0)
	// Encounter 1 writes hello, response, request, done: 4 is the done frame.
	addr, ln := listenVia(t, srv, 0, func(n int32, c net.Conn) net.Conn {
		if n == 1 {
			return &editConn{Conn: c, nth: 4, edit: func(p []byte) []byte { return append(p, strayFrame...) }}
		}
		return c
	})
	dl, b, m := newDialer(t), node(t, "b", "addr:b"), &obs.TransportMetrics{}
	for i := 0; i < 2; i++ {
		if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{Metrics: m}); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
	}
	if ln.accepts.Load() != 2 || m.SessionsOpened.Value() != 2 {
		t.Errorf("%d accepts, %d sessions; want 2 and 2", ln.accepts.Load(), m.SessionsOpened.Value())
	}
}

// A connection with no descriptor behind it (a net.Pipe) is never quiet, so
// a Dialer whose dial function hands out such connections dials for every
// encounter instead of panicking in the probe.
func TestConnWithoutDescriptorDialsFresh(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if newWireIO(c, 0).quiet() {
		t.Error("a pipe probed quiet")
	}
	srv := NewServer(node(t, "a", "addr:a"), 0)
	var served sync.WaitGroup
	dials := 0
	dl := &Dialer{dial: func(_, _ string, _ time.Duration) (net.Conn, error) {
		dials++
		c, s := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			defer s.Close()
			if err := srv.serveConn(s); err != nil {
				t.Error(err)
			}
		}()
		return c, nil
	}}
	b := node(t, "b", "addr:b")
	for i := 0; i < 2; i++ {
		if _, err := dl.Encounter(b, "pipe", 0, testTimeout, DialOptions{}); err != nil {
			t.Fatalf("encounter %d: %v", i, err)
		}
	}
	dl.Close()
	served.Wait()
	if dials != 2 {
		t.Errorf("two encounters dialed %d times, want 2", dials)
	}
}

// Close racing an encounter in flight: whichever of Close and the
// encounter's end comes first, no session stays parked, and the listener
// sees both of the Dialer's sessions (one parked before Close, one in flight)
// end within 100 ms of Close.
func TestDialerCloseRacesEncounter(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(node(t, "a", "addr:a"), 0)
	// Session 2 holds its done frame (the fourth write) until release.
	addr, _ := listenVia(t, srv, 0, func(n int32, c net.Conn) net.Conn {
		if n == 2 {
			return &editConn{Conn: c, nth: 4, edit: func(p []byte) []byte { close(held); <-release; return p }}
		}
		return c
	})
	dl := &Dialer{}
	if _, err := dl.Encounter(node(t, "b", "addr:b"), addr, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	c := node(t, "c", "addr:c")
	errc := make(chan error, 1)
	go func() {
		_, err := dl.Encounter(c, addr, 0, testTimeout, DialOptions{})
		errc <- err
	}()
	<-held
	close(release)
	dl.Close()
	closed := time.Now()
	if err := <-errc; err != nil {
		t.Fatalf("the encounter in flight: %v", err)
	}
	dl.mu.Lock()
	parked := len(dl.idle)
	dl.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d sessions parked after Close", parked)
	}
	for {
		srv.mu.Lock()
		open := len(srv.sessions)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Since(closed) > 100*time.Millisecond {
			t.Fatalf("the listener still holds %d sessions 100 ms after Close", open)
		}
		time.Sleep(time.Millisecond)
	}
}
