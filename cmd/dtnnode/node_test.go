package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"replidtn/internal/obs"
)

// freeUDPAddr reserves a loopback UDP address and frees it for the node.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	return addr
}

// startTestNode builds a quiet node with the debug endpoint on an ephemeral
// port and discovery beaconing to targets (none = discovery off).
func startTestNode(t *testing.T, id, addr, udpListen string, udpTargets ...string) *node {
	t.Helper()
	n, err := newNode(options{
		id: id, addr: addr, listen: "127.0.0.1:0",
		policy:         "epidemic",
		debugAddr:      "127.0.0.1:0",
		discoverListen: udpListen,
		discoverPeers:  udpTargets,
		syncOnDiscover: false,
		out:            io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.close)
	return n
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestTwoNodeEncounterObservability runs two live nodes through discovery and
// a real TCP encounter, then checks that the counters served over /metrics
// agree with the EncounterResult and that every debug route answers.
func TestTwoNodeEncounterObservability(t *testing.T) {
	udpA, udpB := freeUDPAddr(t), freeUDPAddr(t)
	alice := startTestNode(t, "alice", "user:alice", udpA, udpB)
	bob := startTestNode(t, "bob", "user:bob", udpB, udpA)

	if _, err := alice.ep.Send("user:alice", []string{"user:bob"}, []byte("hi bob")); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ep.Send("user:bob", []string{"user:alice"}, []byte("hi alice")); err != nil {
		t.Fatal(err)
	}

	// Wait for mutual discovery, then drive the encounter explicitly
	// (syncOnDiscover is off) so the result is in hand for comparison.
	deadline := time.Now().Add(5 * time.Second)
	for len(alice.disc.Addrs()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	addrs := alice.disc.Addrs()
	if len(addrs) != 1 || addrs[0] != bob.bound.String() {
		t.Fatalf("alice discovered %v, want [%s]", addrs, bob.bound)
	}
	res, err := alice.encounter(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.AtoB.Sent != 1 || res.BtoA.Sent != 1 {
		t.Fatalf("encounter moved %d/%d items, want 1/1", res.AtoB.Sent, res.BtoA.Sent)
	}
	if inbox := alice.ep.Inbox(); len(inbox) != 1 || string(inbox[0].Message.Body) != "hi alice" {
		t.Fatalf("alice inbox = %+v", inbox)
	}
	// Flush bob's connection handler so its serve-side counters are final.
	if err := bob.srv.Close(); err != nil {
		t.Fatal(err)
	}

	var aliceSnap, bobSnap metricsDoc
	getJSON(t, fmt.Sprintf("http://%s/metrics", alice.debug.addr), &aliceSnap)
	getJSON(t, fmt.Sprintf("http://%s/metrics", bob.debug.addr), &bobSnap)

	at, bt := aliceSnap.Transport, bobSnap.Transport
	if at.EncountersDialed != 1 || at.EncounterErrors != 0 {
		t.Errorf("alice transport: %+v", at)
	}
	if bt.EncountersServed != 1 || bt.EncounterErrors != 0 {
		t.Errorf("bob transport: %+v", bt)
	}
	if at.BytesWritten != bt.BytesRead || at.BytesRead != bt.BytesWritten {
		t.Errorf("wire bytes disagree: alice w/r %d/%d, bob r/w %d/%d",
			at.BytesWritten, at.BytesRead, bt.BytesRead, bt.BytesWritten)
	}
	if len(aliceSnap.Spans) != 1 {
		t.Fatalf("alice spans = %+v", aliceSnap.Spans)
	}
	span := aliceSnap.Spans[0]
	if span.Role != obs.RoleDial || span.Peer != "bob" || span.Err != "" {
		t.Errorf("alice span = %+v", span)
	}
	if span.ItemsSent != res.AtoB.Sent {
		t.Errorf("span sent %d, result %d", span.ItemsSent, res.AtoB.Sent)
	}
	applied := res.BtoA.Apply.Stored + res.BtoA.Apply.Relayed + res.BtoA.Apply.Tombstones
	if span.ItemsApplied != applied {
		t.Errorf("span applied %d, result %d", span.ItemsApplied, applied)
	}
	// Replica-level accounting: each side initiated one sync and served one,
	// and alice applied what the result says she did.
	if aliceSnap.Replica.SyncsInitiated != 1 || aliceSnap.Replica.SyncsServed != 1 {
		t.Errorf("alice replica: %+v", aliceSnap.Replica)
	}
	if aliceSnap.Replica.ItemsApplied != applied {
		t.Errorf("alice ItemsApplied = %d, result %d", aliceSnap.Replica.ItemsApplied, applied)
	}
	if aliceSnap.Store.Live != 2 { // own message + bob's, both live on alice
		t.Errorf("alice live gauge = %d, want 2", aliceSnap.Store.Live)
	}
	if aliceSnap.Discovery.PeersSeen != 1 || aliceSnap.Discovery.BeaconsSent == 0 {
		t.Errorf("alice discovery: %+v", aliceSnap.Discovery)
	}

	// The remaining debug routes answer.
	var health map[string]any
	getJSON(t, fmt.Sprintf("http://%s/healthz", alice.debug.addr), &health)
	if health["status"] != "ok" || health["id"] != "alice" {
		t.Errorf("healthz = %v", health)
	}
	var peers struct {
		Configured []string `json:"configured"`
		Discovered []struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
		} `json:"discovered"`
	}
	getJSON(t, fmt.Sprintf("http://%s/peers", alice.debug.addr), &peers)
	if len(peers.Discovered) != 1 || peers.Discovered[0].ID != "bob" {
		t.Errorf("peers = %+v", peers)
	}
	var vars map[string]json.RawMessage
	getJSON(t, fmt.Sprintf("http://%s/debug/vars", alice.debug.addr), &vars)
	if _, ok := vars["dtnnode.alice"]; !ok {
		t.Errorf("expvar missing dtnnode.alice, has %d vars", len(vars))
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/goroutine?debug=1", alice.debug.addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof goroutine: status %d, body %q...", resp.StatusCode, truncate(string(body), 80))
	}
}

// TestMetricsShowRoutingFrames: a PROPHET pair with -summaries meets twice;
// /metrics reports the first request's routing state as a full frame and the
// second's as a delta, with their bytes.
func TestMetricsShowRoutingFrames(t *testing.T) {
	start := func(id string) *node {
		n, err := newNode(options{
			id: id, addr: "user:" + id, listen: "127.0.0.1:0", policy: "prophet",
			summaries: true, debugAddr: "127.0.0.1:0", out: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.close)
		return n
	}
	alice, bob := start("alice"), start("bob")
	for i := 0; i < 2; i++ {
		if _, err := alice.encounter(bob.bound.String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := bob.srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*node{alice, bob} {
		var snap metricsDoc
		getJSON(t, fmt.Sprintf("http://%s/metrics", n.debug.addr), &snap)
		r := snap.Replica
		if r.RoutingFullFrames != 1 || r.RoutingDeltaFrames != 1 || r.RoutingFullBytes <= 0 || r.RoutingDeltaBytes <= 0 {
			t.Errorf("%s: routing frames full/delta %d/%d, bytes %d/%d; want 1/1 and bytes for both",
				n.opts.id, r.RoutingFullFrames, r.RoutingDeltaFrames, r.RoutingFullBytes, r.RoutingDeltaBytes)
		}
		// The routing delta rode a knowledge delta.
		if r.KnowledgeFullFrames != 1 || r.KnowledgeDeltaFrames != 1 || r.KnowledgeFullBytes <= 0 || r.KnowledgeDeltaBytes <= 0 {
			t.Errorf("%s: knowledge frames full/delta %d/%d, bytes %d/%d; want 1/1 and bytes for both",
				n.opts.id, r.KnowledgeFullFrames, r.KnowledgeDeltaFrames, r.KnowledgeFullBytes, r.KnowledgeDeltaBytes)
		}
	}
}

// TestSyncEveryReusesOneSession: a node with -sync-every runs each periodic
// encounter with its configured peer over the one TCP session the first
// opened, so /metrics shows sessions_opened 1 on each side however many
// encounters it has dialed.
func TestSyncEveryReusesOneSession(t *testing.T) {
	bob := startTestNode(t, "bob", "user:bob", "")
	alice, err := newNode(options{
		id: "alice", addr: "user:alice", listen: "127.0.0.1:0", policy: "epidemic",
		peers: []string{bob.bound.String()}, debugAddr: "127.0.0.1:0", out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(alice.close)
	stop := every(5*time.Millisecond, alice.syncAll)
	deadline := time.Now().Add(5 * time.Second)
	for alice.metrics.Transport.EncountersDialed.Value() < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	var aliceSnap, bobSnap metricsDoc
	getJSON(t, fmt.Sprintf("http://%s/metrics", alice.debug.addr), &aliceSnap)
	getJSON(t, fmt.Sprintf("http://%s/metrics", bob.debug.addr), &bobSnap)
	at, bt := aliceSnap.Transport, bobSnap.Transport
	if at.EncountersDialed < 5 || at.EncounterErrors != 0 || bt.EncounterErrors != 0 {
		t.Fatalf("alice dialed %d encounters with %d errors, bob %d errors; want at least 5 and none",
			at.EncountersDialed, at.EncounterErrors, bt.EncounterErrors)
	}
	if at.SessionsOpened != 1 || bt.SessionsOpened != 1 {
		t.Errorf("sessions opened: alice %d, bob %d after %d encounters; want 1 each",
			at.SessionsOpened, bt.SessionsOpened, at.EncountersDialed)
	}
}

// TestExpvarRepublishSafe: rebuilding a node with the same id in one process
// must not panic expvar's duplicate-name check.
func TestExpvarRepublishSafe(t *testing.T) {
	for i := 0; i < 2; i++ {
		n := startTestNode(t, "repeat", "user:repeat", "")
		var snap metricsDoc
		getJSON(t, fmt.Sprintf("http://%s/metrics", n.debug.addr), &snap)
		n.close()
	}
}

// TestMetricsKeySet pins every key path of a /metrics document after an
// encounter (a[] marks an array's elements) to the schema README.md
// documents: the replica and store sections come from the replica's Stats,
// the rest from the node's sinks, and a key moving is a schema change.
func TestMetricsKeySet(t *testing.T) {
	alice := startTestNode(t, "alice", "user:alice", "")
	bob := startTestNode(t, "bob", "user:bob", "")
	if _, err := bob.ep.Send("user:bob", []string{"user:alice"}, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.encounter(bob.bound.String()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	getJSON(t, fmt.Sprintf("http://%s/metrics", alice.debug.addr), &doc)
	var got []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				got = append(got, prefix+k)
				walk(prefix+k+".", e)
			}
		case []any:
			for _, e := range v[:min(len(v), 1)] {
				walk(strings.TrimSuffix(prefix, ".")+"[].", e)
			}
		}
	}
	walk("", doc)
	slices.Sort(got)
	got = slices.Compact(got)
	want := []string{
		"discovery", "discovery.beacons_received", "discovery.beacons_rejected",
		"discovery.beacons_sent", "discovery.peer_expiries", "discovery.peers_live",
		"discovery.peers_seen", "replica", "replica.batch_items",
		"replica.batch_items.buckets", "replica.batch_items.buckets[].count",
		"replica.batch_items.buckets[].le", "replica.batch_items.count",
		"replica.batch_items.sum", "replica.batches_applied", "replica.candidates_offered",
		"replica.delivered", "replica.duplicates", "replica.entries_examined",
		"replica.evictions", "replica.expired", "replica.items_applied", "replica.items_sent",
		"replica.knowledge_delta_bytes", "replica.knowledge_delta_frames",
		"replica.knowledge_full_bytes", "replica.knowledge_full_frames",
		"replica.knowledge_size", "replica.relayed", "replica.routing_delta_bytes",
		"replica.routing_delta_frames", "replica.routing_full_bytes",
		"replica.routing_full_frames", "replica.stored", "replica.summary_fallbacks",
		"replica.superseded", "replica.syncs_aborted", "replica.syncs_initiated",
		"replica.syncs_served", "replica.tombstones", "spans", "spans[].bytes_in",
		"spans[].bytes_out", "spans[].duration_us", "spans[].items_applied",
		"spans[].items_sent", "spans[].peer", "spans[].role", "spans[].start_unix_ns", "store",
		"store.evictions", "store.live", "store.relay", "store.tombstones", "transport",
		"transport.bytes_read", "transport.bytes_written", "transport.encounter_errors",
		"transport.encounter_us", "transport.encounter_us.buckets",
		"transport.encounter_us.buckets[].count", "transport.encounter_us.buckets[].le",
		"transport.encounter_us.count", "transport.encounter_us.sum",
		"transport.encounters_dialed", "transport.encounters_served", "transport.frames_read",
		"transport.frames_written", "transport.sessions_opened",
		"transport.validation_rejected", "wal", "wal.bytes", "wal.compactions", "wal.flushes",
		"wal.records", "wal.recoveries", "wal.segments", "wal.truncated_tails",
	}
	if !slices.Equal(got, want) {
		t.Errorf("/metrics key paths:\n%q\nwant\n%q", got, want)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
