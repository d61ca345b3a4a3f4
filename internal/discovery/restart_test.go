package discovery

import (
	"net"
	"testing"
	"time"

	"replidtn/internal/obs"
)

// TestRestartAfterStop: Stop then Start must relaunch working send and
// receive loops. Before the done channel was recreated per Start, a restarted
// sendLoop exited on its first select and the node went silent.
func TestRestartAfterStop(t *testing.T) {
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
		Listen: addrA, Targets: []string{addrB}, Interval: 30 * time.Millisecond,
	})
	db := New(Config{
		Self: "nodeB", TCPAddr: "127.0.0.1:9002",
		Listen: addrB, Targets: []string{addrA}, Interval: 30 * time.Millisecond,
	})
	if _, err := db.Start(); err != nil {
		t.Fatal(err)
	}
	defer db.Stop()

	for cycle := 0; cycle < 3; cycle++ {
		if _, err := da.Start(); err != nil {
			t.Fatalf("cycle %d: Start: %v", cycle, err)
		}
		// Both directions must work every cycle: A hears B (recvLoop) and B
		// hears A's fresh beacons (sendLoop). B's registry is cleared first so
		// stale pre-restart sightings cannot satisfy the wait.
		db.mu.Lock()
		clear(db.peers)
		db.mu.Unlock()
		waitFor(t, func() bool { return len(da.Peers()) == 1 && len(db.Peers()) == 1 },
			3*time.Second, "post-restart discovery")
		da.Stop()
	}
}

// TestDiscoveryMetrics: beacon counters and the live-peer gauge move with
// traffic, rejects and expiries included.
func TestDiscoveryMetrics(t *testing.T) {
	m := &obs.DiscoveryMetrics{}
	clk := newFakeClock()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	d := New(Config{
		Self: "self", TCPAddr: "127.0.0.1:9100",
		Listen: addr, Targets: []string{addr}, Interval: 20 * time.Millisecond,
		Clock:   clk.Now,
		Metrics: m,
	})
	if _, err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	// Our own beacons loop back: sent and received but rejected, never peers.
	waitFor(t, func() bool { return m.BeaconsSent.Value() >= 2 && m.BeaconsRejected.Value() >= 2 },
		3*time.Second, "own-beacon accounting")
	if got := m.BeaconsReceived.Value(); got < m.BeaconsRejected.Value() {
		t.Errorf("received %d < rejected %d", got, m.BeaconsRejected.Value())
	}
	if m.PeersSeen.Value() != 0 || m.PeersLive.Value() != 0 {
		t.Errorf("own beacons registered as peers: seen=%d live=%d",
			m.PeersSeen.Value(), m.PeersLive.Value())
	}

	// A real peer: seen once, live, then expired by the injected clock.
	d.observe(beacon{ID: "peer", TCPAddr: "127.0.0.1:9300"})
	if m.PeersSeen.Value() != 1 || m.PeersLive.Value() != 1 {
		t.Errorf("after peer beacon: seen=%d live=%d, want 1/1",
			m.PeersSeen.Value(), m.PeersLive.Value())
	}
	clk.Advance(time.Minute)
	if n := len(d.Peers()); n != 0 {
		t.Fatalf("peer should have expired, registry has %d", n)
	}
	if m.PeerExpiries.Value() != 1 || m.PeersLive.Value() != 0 {
		t.Errorf("after expiry: expiries=%d live=%d, want 1/0",
			m.PeerExpiries.Value(), m.PeersLive.Value())
	}
}
