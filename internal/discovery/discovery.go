// Package discovery provides opportunistic peer discovery for live nodes:
// each node periodically beacons its identity and TCP encounter address over
// UDP and listens for other nodes' beacons, maintaining a registry of
// recently seen peers. This is the "encounter detection" half of a real DTN
// deployment — the trace-driven emulations schedule encounters explicitly,
// but live nodes (cmd/dtnnode) must notice each other first.
//
// Beacons are tiny binary frames sent to a configured set of targets
// (unicast peers on loopback or a LAN broadcast address). Peers expire from
// the registry when their beacons stop arriving, modeling the end of a
// contact.
package discovery

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"replidtn/internal/obs"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// A beacon follows the transport hello's rule: beaconMagic, the
// beaconVersion byte, then the replica ID and the TCP encounter address as
// length-prefixed strings, with nothing after them. A datagram with another
// magic or version is refused, never negotiated.
const (
	beaconMagic   = "RDTD"
	beaconVersion = 1
	// maxBeaconID caps the announced replica ID, as the hello caps its own.
	maxBeaconID = 256
)

// beacon is the announcement frame.
type beacon struct {
	ID      vclock.ReplicaID
	TCPAddr string
}

// appendBeacon appends b's frame to buf.
func appendBeacon(buf []byte, b beacon) []byte {
	buf = append(append(buf, beaconMagic...), beaconVersion)
	buf = prim.AppendString(buf, string(b.ID))
	return prim.AppendString(buf, b.TCPAddr)
}

// decodeBeacon parses one datagram. Wrong magic or version, an ID over
// maxBeaconID bytes, truncation and trailing bytes are all errors.
func decodeBeacon(frame []byte) (beacon, error) {
	if len(frame) <= len(beaconMagic) || string(frame[:len(beaconMagic)]) != beaconMagic {
		return beacon{}, errors.New("discovery: datagram without the beacon magic")
	}
	if ver := frame[len(beaconMagic)]; ver != beaconVersion {
		return beacon{}, fmt.Errorf("discovery: beacon version %d, want %d", ver, beaconVersion)
	}
	d := prim.NewDecoder(frame[len(beaconMagic)+1:])
	b := beacon{ID: vclock.ReplicaID(d.String()), TCPAddr: d.String()}
	if err := d.Finish(); err != nil {
		return beacon{}, fmt.Errorf("discovery: beacon: %w", err)
	}
	if len(b.ID) > maxBeaconID {
		return beacon{}, fmt.Errorf("discovery: beacon ID of %d bytes, cap %d", len(b.ID), maxBeaconID)
	}
	return b, nil
}

// Peer is a recently seen node.
type Peer struct {
	ID vclock.ReplicaID
	// Addr is the peer's TCP encounter address.
	Addr string
	// LastSeen is when its latest beacon arrived.
	LastSeen time.Time
}

// Config configures a Discoverer.
type Config struct {
	// Self is this node's replica ID; its own beacons are ignored.
	Self vclock.ReplicaID
	// TCPAddr is the encounter address announced in beacons.
	TCPAddr string
	// Listen is the UDP address to receive beacons on (e.g. "127.0.0.1:7700").
	Listen string
	// Targets are the UDP addresses beacons are sent to (unicast peers or a
	// broadcast address).
	Targets []string
	// Interval is the beacon period (default 2s).
	Interval time.Duration
	// TTL is how long a peer stays in the registry after its last beacon
	// (default 3 × Interval).
	TTL time.Duration
	// OnPeer, when set, fires each time a peer is seen for the first time
	// (or re-appears after expiring).
	OnPeer func(Peer)
	// Clock supplies the current time for peer freshness accounting
	// (default time.Now). Tests inject a fake clock to drive expiry
	// deterministically instead of sleeping through real TTLs.
	Clock func() time.Time
	// Metrics, when set, receives beacon counters and the live-peer gauge.
	// Nil disables instrumentation.
	Metrics *obs.DiscoveryMetrics
}

// Discoverer runs the beacon sender and listener. Create with New, then
// Start; Stop shuts both down. A stopped Discoverer can be started again —
// the peer registry survives the gap, subject to normal TTL expiry.
type Discoverer struct {
	cfg  Config
	conn net.PacketConn

	mu      sync.Mutex
	peers   map[vclock.ReplicaID]Peer
	started bool
	done    chan struct{}
	wg      sync.WaitGroup
}

// New creates a Discoverer from cfg, applying defaults.
func New(cfg Config) *Discoverer {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * cfg.Interval
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Discoverer{
		cfg:   cfg,
		peers: make(map[vclock.ReplicaID]Peer),
		done:  make(chan struct{}),
	}
}

// Start binds the UDP socket and launches the beacon sender and listener.
// It returns the bound UDP address.
func (d *Discoverer) Start() (net.Addr, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return nil, fmt.Errorf("discovery: already started")
	}
	conn, err := net.ListenPacket("udp", d.cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("discovery: listen %s: %w", d.cfg.Listen, err)
	}
	d.conn = conn
	d.started = true
	// Stop closed the previous done channel; every Start gets a fresh one so
	// the relaunched loops do not exit on their first select.
	d.done = make(chan struct{})
	d.wg.Add(2)
	go d.sendLoop()
	go d.recvLoop()
	return conn.LocalAddr(), nil
}

// Stop shuts down the sender and listener and waits for them.
func (d *Discoverer) Stop() {
	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		return
	}
	d.started = false
	close(d.done)
	conn := d.conn
	d.mu.Unlock()
	conn.Close()
	d.wg.Wait()
}

// Peers returns the live (unexpired) registry, sorted by ID.
func (d *Discoverer) Peers() []Peer {
	now := d.cfg.Clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Peer, 0, len(d.peers))
	for id, p := range d.peers {
		if now.Sub(p.LastSeen) > d.cfg.TTL {
			delete(d.peers, id)
			if d.cfg.Metrics != nil {
				d.cfg.Metrics.PeerExpiries.Inc()
			}
			continue
		}
		out = append(out, p)
	}
	if d.cfg.Metrics != nil {
		d.cfg.Metrics.PeersLive.Set(int64(len(d.peers)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Addrs returns the live peers' TCP encounter addresses.
func (d *Discoverer) Addrs() []string {
	peers := d.Peers()
	out := make([]string, len(peers))
	for i, p := range peers {
		out[i] = p.Addr
	}
	return out
}

// sendLoop beacons to every target until Stop, with an immediate first
// beacon so discovery does not wait a full interval.
func (d *Discoverer) sendLoop() {
	defer d.wg.Done()
	frame := appendBeacon(nil, beacon{ID: d.cfg.Self, TCPAddr: d.cfg.TCPAddr})
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		for _, target := range d.cfg.Targets {
			if addr, err := net.ResolveUDPAddr("udp", target); err == nil {
				if _, err := d.conn.WriteTo(frame, addr); err == nil && d.cfg.Metrics != nil {
					d.cfg.Metrics.BeaconsSent.Inc()
				}
			}
		}
		select {
		case <-d.done:
			return
		case <-ticker.C:
		}
	}
}

// recvLoop ingests beacons until the socket closes.
func (d *Discoverer) recvLoop() {
	defer d.wg.Done()
	buf := make([]byte, 1024)
	for {
		n, _, err := d.conn.ReadFrom(buf)
		if err != nil {
			return // socket closed by Stop
		}
		d.ingest(buf[:n])
	}
}

// ingest handles one received datagram. Malformed frames, our own beacons
// and beacons without an address are counted as rejected and never reach
// the registry.
func (d *Discoverer) ingest(frame []byte) {
	if d.cfg.Metrics != nil {
		d.cfg.Metrics.BeaconsReceived.Inc()
	}
	b, err := decodeBeacon(frame)
	if err != nil || b.ID == d.cfg.Self || b.TCPAddr == "" {
		if d.cfg.Metrics != nil {
			d.cfg.Metrics.BeaconsRejected.Inc()
		}
		return
	}
	d.observe(b)
}

func (d *Discoverer) observe(b beacon) {
	now := d.cfg.Clock()
	d.mu.Lock()
	prev, known := d.peers[b.ID]
	fresh := !known || now.Sub(prev.LastSeen) > d.cfg.TTL
	peer := Peer{ID: b.ID, Addr: b.TCPAddr, LastSeen: now}
	d.peers[b.ID] = peer
	if d.cfg.Metrics != nil {
		if fresh {
			d.cfg.Metrics.PeersSeen.Inc()
		}
		d.cfg.Metrics.PeersLive.Set(int64(len(d.peers)))
	}
	cb := d.cfg.OnPeer
	d.mu.Unlock()
	if fresh && cb != nil {
		cb(peer)
	}
}
