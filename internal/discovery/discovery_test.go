package discovery

import (
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock is an injectable clock: tests advance it explicitly instead of
// sleeping through real TTLs.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// startPair launches two discoverers beaconing at each other over loopback.
// clockA, when non-nil, is injected into node A's freshness accounting.
func startPair(t *testing.T, interval time.Duration, clockA func() time.Time) (*Discoverer, *Discoverer) {
	t.Helper()
	// Bind both sockets first so each knows the other's UDP address.
	connA, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	connB, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := connA.LocalAddr().String(), connB.LocalAddr().String()
	connA.Close()
	connB.Close()

	da := New(Config{
		Self: "nodeA", TCPAddr: "127.0.0.1:9001",
		Listen: addrA, Targets: []string{addrB}, Interval: interval,
		Clock: clockA,
	})
	db := New(Config{
		Self: "nodeB", TCPAddr: "127.0.0.1:9002",
		Listen: addrB, Targets: []string{addrA}, Interval: interval,
	})
	if _, err := da.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(da.Stop)
	if _, err := db.Start(); err != nil {
		da.Stop()
		t.Fatal(err)
	}
	t.Cleanup(db.Stop)
	return da, db
}

func waitFor(t *testing.T, cond func() bool, within time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestMutualDiscovery(t *testing.T) {
	da, db := startPair(t, 50*time.Millisecond, nil)
	waitFor(t, func() bool { return len(da.Peers()) == 1 && len(db.Peers()) == 1 },
		3*time.Second, "mutual discovery")
	pa := da.Peers()[0]
	if pa.ID != "nodeB" || pa.Addr != "127.0.0.1:9002" {
		t.Errorf("A discovered %+v", pa)
	}
	pb := db.Peers()[0]
	if pb.ID != "nodeA" || pb.Addr != "127.0.0.1:9001" {
		t.Errorf("B discovered %+v", pb)
	}
	if got := da.Addrs(); len(got) != 1 || got[0] != "127.0.0.1:9002" {
		t.Errorf("Addrs() = %v", got)
	}
}

func TestOnPeerFiresOncePerAppearance(t *testing.T) {
	var mu sync.Mutex
	var events []Peer
	connA, _ := net.ListenPacket("udp", "127.0.0.1:0")
	connB, _ := net.ListenPacket("udp", "127.0.0.1:0")
	addrA, addrB := connA.LocalAddr().String(), connB.LocalAddr().String()
	connA.Close()
	connB.Close()
	da := New(Config{
		Self: "nodeA", TCPAddr: "a", Listen: addrA, Targets: nil,
		Interval: 30 * time.Millisecond,
		OnPeer: func(p Peer) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	})
	db := New(Config{
		Self: "nodeB", TCPAddr: "127.0.0.1:9002",
		Listen: addrB, Targets: []string{addrA}, Interval: 30 * time.Millisecond,
	})
	if _, err := da.Start(); err != nil {
		t.Fatal(err)
	}
	defer da.Stop()
	if _, err := db.Start(); err != nil {
		t.Fatal(err)
	}
	defer db.Stop()
	waitFor(t, func() bool { return len(da.Peers()) == 1 }, 3*time.Second, "discovery")
	// Let several more beacons arrive: OnPeer must not re-fire.
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Errorf("OnPeer fired %d times, want 1", len(events))
	}
}

func TestPeerExpiry(t *testing.T) {
	clk := newFakeClock()
	da, db := startPair(t, 30*time.Millisecond, clk.Now)
	waitFor(t, func() bool { return len(da.Peers()) == 1 }, 3*time.Second, "discovery")
	db.Stop()
	// Expiry is driven by the injected clock, not by sleeping through the
	// TTL: each poll jumps well past it, so once B's last in-flight beacon
	// has drained the registry must read empty.
	waitFor(t, func() bool {
		clk.Advance(time.Second)
		return len(da.Peers()) == 0
	}, 3*time.Second, "expiry")
}

// TestObserveWithInjectedClock exercises the registry state machine without
// sockets: freshness, TTL expiry, and OnPeer re-fire are all a pure function
// of the injected clock.
func TestObserveWithInjectedClock(t *testing.T) {
	clk := newFakeClock()
	var fired []Peer
	d := New(Config{
		Self: "self", TCPAddr: "a", Listen: "127.0.0.1:0",
		Interval: time.Second, // TTL defaults to 3s
		OnPeer:   func(p Peer) { fired = append(fired, p) },
		Clock:    clk.Now,
	})
	d.observe(beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	if len(d.Peers()) != 1 || len(fired) != 1 {
		t.Fatalf("after first beacon: peers=%v fired=%v", d.Peers(), fired)
	}
	// A beacon within the TTL refreshes without re-firing OnPeer.
	clk.Advance(2 * time.Second)
	d.observe(beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	if len(fired) != 1 {
		t.Fatalf("OnPeer re-fired within TTL: %v", fired)
	}
	// Silence past the TTL expires the peer.
	clk.Advance(4 * time.Second)
	if got := d.Peers(); len(got) != 0 {
		t.Fatalf("peer should have expired, got %v", got)
	}
	// A re-appearance after expiry fires OnPeer again.
	d.observe(beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	if len(fired) != 2 {
		t.Fatalf("OnPeer should re-fire after expiry, fired=%v", fired)
	}
}

func TestIgnoresOwnAndMalformedBeacons(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	// Beacon to itself: must not self-register.
	d := New(Config{
		Self: "solo", TCPAddr: "127.0.0.1:9100",
		Listen: addr, Targets: []string{addr}, Interval: 20 * time.Millisecond,
	})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	// Inject garbage too.
	g, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte{0xff, 0x00, 0x13})
	g.Close()
	time.Sleep(100 * time.Millisecond)
	if got := d.Peers(); len(got) != 0 {
		t.Errorf("registry should stay empty, got %v", got)
	}
}

func TestDoubleStartFails(t *testing.T) {
	d := New(Config{Self: "x", TCPAddr: "a", Listen: "127.0.0.1:0"})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if _, err := d.Start(); err == nil {
		t.Error("second Start should fail")
	}
}

func TestStopIdempotent(t *testing.T) {
	d := New(Config{Self: "x", TCPAddr: "a", Listen: "127.0.0.1:0"})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Stop()
	d.Stop() // must not panic
}
