package obs

// This file defines the per-subsystem metric sets a node exposes. Each
// instrumented package (transport, replica, store, discovery) takes an
// optional pointer to its set; nil disables instrumentation entirely. The
// structs are plain field bundles — instrumented code addresses fields
// directly under its own nil guard — and each has a typed Snapshot whose
// JSON encoding is the /metrics wire schema (documented in README.md).

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

// ReplicaMetrics counts the replication substrate (internal/replica). In the
// emulation harness one set may be shared by every endpoint, aggregating
// network-wide totals; counters are atomic so sharing is safe.
type ReplicaMetrics struct {
	SyncsInitiated Counter
	SyncsServed    Counter
	SyncsAborted   Counter
	// ItemsSent counts batch items transmitted as source; BatchesApplied
	// and ItemsApplied count target-side work.
	ItemsSent      Counter
	BatchesApplied Counter
	ItemsApplied   Counter
	// Stored / Relayed / Tombstones split applied items by disposition.
	Stored     Counter
	Relayed    Counter
	Tombstones Counter
	// Duplicates must stay 0 under the substrate's at-most-once guarantee.
	Duplicates Counter
	Superseded Counter
	Expired    Counter
	Delivered  Counter
	Evictions  Counter
	// Serve-walk cost: store entries visited, candidates offered to batches.
	EntriesExamined   Counter
	CandidatesOffered Counter
	// KnowledgeSize is the latest knowledge size (base entries +
	// exceptions) observed after a sync; with a shared set it is the last
	// writer's value, so it is only meaningful per-node.
	KnowledgeSize Gauge
	// BatchItems aggregates applied batch sizes.
	BatchItems Histogram
	// Knowledge-frame accounting for syncs this replica initiates: how its
	// knowledge traveled (full/exact, or in summary mode a delta against the
	// frontier last sent to the peer) and the encoded bytes each
	// representation cost. SummaryFallbacks counts summary syncs that needed
	// an extra exact-knowledge round.
	KnowledgeFullFrames  Counter
	KnowledgeDeltaFrames Counter
	SummaryFallbacks     Counter
	KnowledgeFullBytes   Counter
	KnowledgeDeltaBytes  Counter
	// Routing-state accounting for the same syncs: whether the policy's
	// request traveled whole or as a delta against the one last sent to the
	// peer (only ever beside a knowledge delta), and the encoded bytes.
	// Requests without routing state count nowhere.
	RoutingFullFrames  Counter
	RoutingDeltaFrames Counter
	RoutingFullBytes   Counter
	RoutingDeltaBytes  Counter
}

// ReplicaSnapshot is ReplicaMetrics at one instant.
type ReplicaSnapshot struct {
	SyncsInitiated int64             `json:"syncs_initiated"`
	SyncsServed    int64             `json:"syncs_served"`
	SyncsAborted   int64             `json:"syncs_aborted"`
	ItemsSent      int64             `json:"items_sent"`
	BatchesApplied int64             `json:"batches_applied"`
	ItemsApplied   int64             `json:"items_applied"`
	Stored         int64             `json:"stored"`
	Relayed        int64             `json:"relayed"`
	Tombstones     int64             `json:"tombstones"`
	Duplicates     int64             `json:"duplicates"`
	Superseded     int64             `json:"superseded"`
	Expired        int64             `json:"expired"`
	Delivered      int64             `json:"delivered"`
	Evictions      int64             `json:"evictions"`
	KnowledgeSize  int64             `json:"knowledge_size"`
	BatchItems     HistogramSnapshot `json:"batch_items"`

	EntriesExamined   int64 `json:"entries_examined"`
	CandidatesOffered int64 `json:"candidates_offered"`

	KnowledgeFullFrames  int64 `json:"knowledge_full_frames"`
	KnowledgeDeltaFrames int64 `json:"knowledge_delta_frames"`
	SummaryFallbacks     int64 `json:"summary_fallbacks"`
	KnowledgeFullBytes   int64 `json:"knowledge_full_bytes"`
	KnowledgeDeltaBytes  int64 `json:"knowledge_delta_bytes"`

	RoutingFullFrames  int64 `json:"routing_full_frames"`
	RoutingDeltaFrames int64 `json:"routing_delta_frames"`
	RoutingFullBytes   int64 `json:"routing_full_bytes"`
	RoutingDeltaBytes  int64 `json:"routing_delta_bytes"`
}

// Snapshot captures the counters. Nil-safe.
func (m *ReplicaMetrics) Snapshot() ReplicaSnapshot {
	if m == nil {
		return ReplicaSnapshot{}
	}
	return ReplicaSnapshot{
		SyncsInitiated: m.SyncsInitiated.Value(),
		SyncsServed:    m.SyncsServed.Value(),
		SyncsAborted:   m.SyncsAborted.Value(),
		ItemsSent:      m.ItemsSent.Value(),
		BatchesApplied: m.BatchesApplied.Value(),
		ItemsApplied:   m.ItemsApplied.Value(),
		Stored:         m.Stored.Value(),
		Relayed:        m.Relayed.Value(),
		Tombstones:     m.Tombstones.Value(),
		Duplicates:     m.Duplicates.Value(),
		Superseded:     m.Superseded.Value(),
		Expired:        m.Expired.Value(),
		Delivered:      m.Delivered.Value(),
		Evictions:      m.Evictions.Value(),
		KnowledgeSize:  m.KnowledgeSize.Value(),
		BatchItems:     m.BatchItems.Snapshot(),

		EntriesExamined:   m.EntriesExamined.Value(),
		CandidatesOffered: m.CandidatesOffered.Value(),

		KnowledgeFullFrames:  m.KnowledgeFullFrames.Value(),
		KnowledgeDeltaFrames: m.KnowledgeDeltaFrames.Value(),
		SummaryFallbacks:     m.SummaryFallbacks.Value(),
		KnowledgeFullBytes:   m.KnowledgeFullBytes.Value(),
		KnowledgeDeltaBytes:  m.KnowledgeDeltaBytes.Value(),

		RoutingFullFrames:  m.RoutingFullFrames.Value(),
		RoutingDeltaFrames: m.RoutingDeltaFrames.Value(),
		RoutingFullBytes:   m.RoutingFullBytes.Value(),
		RoutingDeltaBytes:  m.RoutingDeltaBytes.Value(),
	}
}

// StoreMetrics tracks one store's partition populations (internal/store).
// The gauges move by deltas on every mutation, so they are exact for a
// single store; Restore re-counts in place (subtract old, add restored).
type StoreMetrics struct {
	// Live / Relay / Tombstones gauge the partition populations: live
	// (non-tombstone) entries, live relay entries, and tombstones.
	Live       Gauge
	Relay      Gauge
	Tombstones Gauge
	// Evictions counts relay entries expelled by storage pressure.
	Evictions Counter
}

// StoreSnapshot is StoreMetrics at one instant.
type StoreSnapshot struct {
	Live       int64 `json:"live"`
	Relay      int64 `json:"relay"`
	Tombstones int64 `json:"tombstones"`
	Evictions  int64 `json:"evictions"`
}

// Snapshot captures the gauges. Nil-safe.
func (m *StoreMetrics) Snapshot() StoreSnapshot {
	if m == nil {
		return StoreSnapshot{}
	}
	return StoreSnapshot{
		Live:       m.Live.Value(),
		Relay:      m.Relay.Value(),
		Tombstones: m.Tombstones.Value(),
		Evictions:  m.Evictions.Value(),
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

// NodeMetrics bundles one live node's full metric set — what cmd/dtnnode
// wires into its subsystems and serves at /metrics.
type NodeMetrics struct {
	Transport TransportMetrics
	Replica   ReplicaMetrics
	Store     StoreMetrics
	Discovery DiscoveryMetrics
	WAL       WALMetrics
}

// NodeSnapshot is the /metrics JSON document.
type NodeSnapshot struct {
	Transport TransportSnapshot `json:"transport"`
	Replica   ReplicaSnapshot   `json:"replica"`
	Store     StoreSnapshot     `json:"store"`
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
		Replica:   n.Replica.Snapshot(),
		Store:     n.Store.Snapshot(),
		Discovery: n.Discovery.Snapshot(),
		WAL:       n.WAL.Snapshot(),
		Spans:     n.Transport.Spans.Snapshot(),
	}
}
