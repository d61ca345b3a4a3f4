package obs

// This file defines the per-subsystem metric sets a node exposes. Each
// instrumented package (transport, discovery, the WAL) takes an optional
// pointer to its set; nil disables instrumentation entirely. The structs are
// plain field bundles — instrumented code addresses fields directly under its
// own nil guard — and each has a typed Snapshot whose JSON encoding is its
// section of the /metrics wire schema (documented in README.md). The replica
// and store sections come from replica.Stats, which cmd/dtnnode reads.

// TransportMetrics counts the TCP encounter path (internal/transport), on
// both the serving and dialing side of one node.
type TransportMetrics struct {
	// EncountersServed / EncountersDialed count completed encounters per
	// role; EncounterErrors counts encounters that failed in either role
	// (the two never overlap for one encounter).
	EncountersServed Counter
	EncountersDialed Counter
	EncounterErrors  Counter
	// FramesRead / FramesWritten count protocol frames (hello, request,
	// response, done) successfully decoded or encoded.
	FramesRead    Counter
	FramesWritten Counter
	// BytesRead / BytesWritten count wire bytes on encounter connections.
	BytesRead    Counter
	BytesWritten Counter
	// ValidationRejected counts frames that decoded but failed structural
	// validation (hostile or broken peers); version mismatches included.
	ValidationRejected Counter
	// SessionsOpened counts completed hello exchanges (sessions), either role.
	SessionsOpened Counter
	// EncounterMicros aggregates completed-encounter wall durations.
	EncounterMicros Histogram
	// Spans retains the most recent encounter spans.
	Spans SpanLog
}

// TransportSnapshot is TransportMetrics at one instant.
type TransportSnapshot struct {
	EncountersServed   int64             `json:"encounters_served"`
	EncountersDialed   int64             `json:"encounters_dialed"`
	EncounterErrors    int64             `json:"encounter_errors"`
	FramesRead         int64             `json:"frames_read"`
	FramesWritten      int64             `json:"frames_written"`
	BytesRead          int64             `json:"bytes_read"`
	BytesWritten       int64             `json:"bytes_written"`
	ValidationRejected int64             `json:"validation_rejected"`
	SessionsOpened     int64             `json:"sessions_opened"`
	EncounterMicros    HistogramSnapshot `json:"encounter_us"`
}

// Snapshot captures the counters (spans are snapshotted separately; see
// NodeMetrics.Snapshot). Nil-safe.
func (m *TransportMetrics) Snapshot() TransportSnapshot {
	if m == nil {
		return TransportSnapshot{}
	}
	return TransportSnapshot{
		EncountersServed:   m.EncountersServed.Value(),
		EncountersDialed:   m.EncountersDialed.Value(),
		EncounterErrors:    m.EncounterErrors.Value(),
		FramesRead:         m.FramesRead.Value(),
		FramesWritten:      m.FramesWritten.Value(),
		BytesRead:          m.BytesRead.Value(),
		BytesWritten:       m.BytesWritten.Value(),
		ValidationRejected: m.ValidationRejected.Value(),
		SessionsOpened:     m.SessionsOpened.Value(),
		EncounterMicros:    m.EncounterMicros.Snapshot(),
	}
}

// DiscoveryMetrics counts the UDP beacon path (internal/discovery).
type DiscoveryMetrics struct {
	BeaconsSent     Counter
	BeaconsReceived Counter
	// BeaconsRejected counts received frames dropped before the registry:
	// malformed frame, wrong magic or version, our own beacon, missing TCP address.
	BeaconsRejected Counter
	// PeersSeen counts first-sighting events: a peer appearing for the
	// first time or re-appearing after expiry (the OnPeer trigger).
	PeersSeen Counter
	// PeerExpiries counts peers dropped from the registry after TTL.
	PeerExpiries Counter
	// PeersLive gauges the current registry population.
	PeersLive Gauge
}

// DiscoverySnapshot is DiscoveryMetrics at one instant.
type DiscoverySnapshot struct {
	BeaconsSent     int64 `json:"beacons_sent"`
	BeaconsReceived int64 `json:"beacons_received"`
	BeaconsRejected int64 `json:"beacons_rejected"`
	PeersSeen       int64 `json:"peers_seen"`
	PeerExpiries    int64 `json:"peer_expiries"`
	PeersLive       int64 `json:"peers_live"`
}

// Snapshot captures the counters. Nil-safe.
func (m *DiscoveryMetrics) Snapshot() DiscoverySnapshot {
	if m == nil {
		return DiscoverySnapshot{}
	}
	return DiscoverySnapshot{
		BeaconsSent:     m.BeaconsSent.Value(),
		BeaconsReceived: m.BeaconsReceived.Value(),
		BeaconsRejected: m.BeaconsRejected.Value(),
		PeersSeen:       m.PeersSeen.Value(),
		PeerExpiries:    m.PeerExpiries.Value(),
		PeersLive:       m.PeersLive.Value(),
	}
}

// NodeMetrics bundles the sinks one live node wires into its subsystems —
// what cmd/dtnnode serves at /metrics beside its replica's Stats.
type NodeMetrics struct {
	Transport TransportMetrics
	Discovery DiscoveryMetrics
	WAL       WALMetrics
}

// NodeSnapshot is the sinks' part of the /metrics JSON document.
type NodeSnapshot struct {
	Transport TransportSnapshot `json:"transport"`
	Discovery DiscoverySnapshot `json:"discovery"`
	WAL       WALSnapshot       `json:"wal"`
	Spans     []SyncSpan        `json:"spans,omitempty"`
}

// Snapshot captures every subsystem plus the retained spans. Nil-safe.
func (n *NodeMetrics) Snapshot() NodeSnapshot {
	if n == nil {
		return NodeSnapshot{}
	}
	return NodeSnapshot{
		Transport: n.Transport.Snapshot(),
		Discovery: n.Discovery.Snapshot(),
		WAL:       n.WAL.Snapshot(),
		Spans:     n.Transport.Spans.Snapshot(),
	}
}
