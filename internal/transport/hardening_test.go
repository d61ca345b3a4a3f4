package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/prim"
)

// TestDialerOversizedBatchRejected mirrors the server-side oversized-batch
// test on the dialing side: a listener shipping a batch past the dialer's
// wire-byte cap fails the encounter on the frame's length prefix with nothing
// applied.
func TestDialerOversizedBatchRejected(t *testing.T) {
	dl := newDialer(t)
	big := replica.New(replica.Config{ID: "big", OwnAddresses: []string{"addr:big"}})
	big.CreateItem(item.Metadata{
		Source: "addr:big", Destinations: []string{"addr:a"}, Kind: "message",
	}, make([]byte, 64<<10))
	srv := NewServer(big, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	knowBefore := a.Knowledge()
	_, err = dl.Encounter(a, addr.String(), 0, 2*time.Second, DialOptions{MaxWireBytes: 4 << 10})
	if err == nil {
		t.Fatal("oversized batch should fail the dialer")
	}
	if !a.Knowledge().Equal(knowBefore) {
		t.Error("oversized batch perturbed the dialer's knowledge")
	}
	if total, _, _ := a.StoreLen(); total != 0 {
		t.Errorf("oversized batch left %d items in the dialer store", total)
	}

	// With the default (generous) cap the same encounter succeeds.
	if _, err := dl.Encounter(a, addr.String(), 0, 2*time.Second, DialOptions{}); err != nil {
		t.Fatalf("encounter under the default cap: %v", err)
	}
	if total, _, _ := a.StoreLen(); total != 1 {
		t.Errorf("store has %d items after clean encounter, want 1", total)
	}
}

// TestSecondListenRejected: a server listens on at most one address; a second
// Listen is rejected instead of silently leaking the first listener, and
// Close reaps the active one.
func TestSecondListenRejected(t *testing.T) {
	dl := newDialer(t)
	a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}})
	srv := NewServer(a, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "already listening") {
		t.Fatalf("second Listen = %v, want already-listening error", err)
	}
	// The first listener still serves.
	b := replica.New(replica.Config{ID: "b", OwnAddresses: []string{"addr:b"}})
	if _, err := dl.Encounter(b, addr.String(), 0, 2*time.Second, DialOptions{}); err != nil {
		t.Fatalf("encounter after rejected Listen: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Close released the port: a fresh raw listener can bind it.
	ln, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
}

// TestTransportMetricsMatchEncounterResult runs one instrumented encounter
// and checks both sides' counters, byte accounting, and spans agree with the
// EncounterResult and with each other.
func TestTransportMetricsMatchEncounterResult(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	b := node(t, "b", "addr:b")
	sendMsg(a, "addr:a", "addr:b")
	sendMsg(b, "addr:b", "addr:a")

	serverM := &obs.TransportMetrics{}
	srv := NewServer(a, 0)
	srv.Metrics = serverM
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialM := &obs.TransportMetrics{}
	res, err := dl.Encounter(b, addr.String(), 0, testTimeout, DialOptions{Metrics: dialM})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil { // flush the handler before reading counters
		t.Fatal(err)
	}

	ss, ds := serverM.Snapshot(), dialM.Snapshot()
	if ss.EncountersServed != 1 || ss.EncounterErrors != 0 {
		t.Errorf("server counters: %+v", ss)
	}
	if ds.EncountersDialed != 1 || ds.EncounterErrors != 0 {
		t.Errorf("dialer counters: %+v", ds)
	}
	// The two ends of one TCP stream must agree byte for byte.
	if ss.BytesRead != ds.BytesWritten || ss.BytesWritten != ds.BytesRead {
		t.Errorf("wire bytes disagree: server r/w %d/%d, dialer r/w %d/%d",
			ss.BytesRead, ss.BytesWritten, ds.BytesRead, ds.BytesWritten)
	}
	// Frames per side: hello, request, response, reverse leg, done = 5 each way.
	if ss.FramesRead != 3 || ss.FramesWritten != 4 {
		t.Errorf("server frames r/w = %d/%d, want 3/4", ss.FramesRead, ss.FramesWritten)
	}
	if ds.FramesRead != 4 || ds.FramesWritten != 3 {
		t.Errorf("dialer frames r/w = %d/%d, want 4/3", ds.FramesRead, ds.FramesWritten)
	}

	spans := dialM.Spans.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("dialer spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Role != obs.RoleDial || sp.Peer != "a" || sp.Err != "" {
		t.Errorf("dialer span = %+v", sp)
	}
	if sp.ItemsSent != res.AtoB.Sent || sp.ItemsApplied != res.BtoA.Apply.Stored {
		t.Errorf("span items sent/applied = %d/%d, result %d/%d",
			sp.ItemsSent, sp.ItemsApplied, res.AtoB.Sent, res.BtoA.Apply.Stored)
	}
	srvSpans := serverM.Spans.Snapshot()
	if len(srvSpans) != 1 || srvSpans[0].Role != obs.RoleServe || srvSpans[0].Peer != "b" {
		t.Errorf("server spans = %+v", srvSpans)
	}
	if srvSpans[0].DurationMicros < 0 || ss.EncounterMicros.Count != 1 {
		t.Errorf("duration accounting: span %d, hist %+v", srvSpans[0].DurationMicros, ss.EncounterMicros)
	}
}

// TestMetricsClassifyValidationRejections: a structurally malformed frame
// from a hostile peer lands in the validation counter and its span carries
// the validation error class.
func TestMetricsClassifyValidationRejections(t *testing.T) {
	a := node(t, "a", "addr:a")
	m := &obs.TransportMetrics{}
	srv := NewServer(a, 0)
	srv.Metrics = m
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := openHostile(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.Close()
	// A sync request with no knowledge must be rejected before the replica:
	// the server hangs up without sending a sync response.
	if err := w.writeRequest(&replica.SyncRequest{TargetID: "evil"}); err != nil {
		t.Fatal(err)
	}
	if err := expectClosed(w.conn); err != nil {
		t.Error(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.ValidationRejected != 1 || snap.EncounterErrors != 1 || snap.EncountersServed != 0 {
		t.Errorf("counters after malformed request: %+v", snap)
	}
	spans := m.Spans.Snapshot()
	if len(spans) != 1 || spans[0].Err != "validation" {
		t.Errorf("spans after malformed request: %+v", spans)
	}
}

// TestHostileRoutingStateRejected: routing state is multiplied into the
// receiver's own tables (PROPHET's transitive update, MaxProp's path costs),
// so a request whose probabilities are not probabilities — +Inf, NaN, 1e300,
// negative — or whose map count is forged past the frame's bytes must die in
// the decoder as a validation error, before ProcessReq sees any of it.
func TestHostileRoutingStateRejected(t *testing.T) {
	now := func() int64 { return 0 }
	newProphet := func() routing.Policy { return prophet.New(prophet.DefaultParams(), now, "addr:a") }
	newMaxProp := func() routing.Policy { return maxprop.New("a", 3, now, "addr:a") }
	prophetReq := func(p float64) *prophet.Request {
		return &prophet.Request{
			OwnAddresses:   []string{"addr:evil"},
			Predictability: sorted.FromMap(map[string]float64{"addr:z": p}),
		}
	}
	maxpropReq := func(p float64) *maxprop.Request {
		return &maxprop.Request{Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
			"evil": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"z": p}), Updated: 1},
		})}
	}
	// A PROPHET body claiming 2^21 vector entries with none behind the count.
	forgedCount := append(prim.AppendStrings(nil, nil), 0x80, 0x80, 0x80, 0x01)
	cases := []struct {
		name    string
		policy  func() routing.Policy
		routing routing.Request
		splice  []byte // when set, replaces the encoded routing body
	}{
		{name: "prophet +Inf", policy: newProphet, routing: prophetReq(math.Inf(1))},
		{name: "prophet NaN", policy: newProphet, routing: prophetReq(math.NaN())},
		{name: "prophet 1e300", policy: newProphet, routing: prophetReq(1e300)},
		{name: "prophet negative", policy: newProphet, routing: prophetReq(-0.5)},
		{name: "maxprop row above 1", policy: newMaxProp, routing: maxpropReq(1.5)},
		{name: "maxprop row NaN", policy: newMaxProp, routing: maxpropReq(math.NaN())},
		{name: "forged map count", policy: newProphet, routing: prophetReq(0.5), splice: forgedCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: tc.policy()})
			before, err := a.PolicyState()
			if err != nil {
				t.Fatal(err)
			}
			body, err := wire.AppendSyncRequest(nil, &replica.SyncRequest{
				TargetID: "evil", Knowledge: vclock.NewKnowledge(), Routing: tc.routing,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.splice != nil {
				honest := tc.routing.(*prophet.Request).AppendBinary(nil)
				at := bytes.Index(body, honest)
				if at < 4 {
					t.Fatal("routing body not found in the encoded request")
				}
				spliced := binary.LittleEndian.AppendUint32(body[:at-4:at-4], uint32(len(tc.splice)))
				body = append(append(spliced, tc.splice...), body[at+len(honest):]...)
			}
			srv := NewServer(a, 0)
			srv.Metrics = &obs.TransportMetrics{}
			transcript := append(rawHello(helloMagic, protocolVersion, "evil"), rawFrame(frameSyncRequest, body)...)
			if err := srv.serveConn(replay(transcript)); errClass(err) != "validation" {
				t.Errorf("server error %v is class %q, want validation", err, errClass(err))
			}
			if got := srv.Metrics.ValidationRejected.Value(); got != 1 {
				t.Errorf("ValidationRejected = %d, want 1", got)
			}
			after, err := a.PolicyState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Error("rejected request still changed the policy's routing state")
			}
		})
	}
}

// TestUnrealVersionBatchRejected: a batch item whose version — or a version
// in its Prior list — has seq 0 or no creator can be stored but never becomes
// known (Knowledge.Add ignores it, Contains never reports it), so every
// holder would re-send it at every later encounter. Both legs must refuse the
// whole response as a validation error with nothing applied: the server when
// a hostile dialer answers its pull, the dialer when a hostile listener
// answers its own.
func TestUnrealVersionBatchRejected(t *testing.T) {
	dl := newDialer(t)
	hostile := func(version vclock.Version, prior ...vclock.Version) []byte {
		body, err := wire.AppendSyncResponse(nil, &replica.SyncResponse{
			SourceID: "evil",
			Items: []replica.BatchItem{
				{Item: &item.Item{
					ID: item.ID{Creator: "evil", Num: 1}, Version: vclock.Version{Replica: "evil", Seq: 1},
					Meta: item.Metadata{Source: "addr:evil", Destinations: []string{"addr:a"}, Kind: "message"},
				}},
				{Item: &item.Item{
					ID: item.ID{Creator: "evil", Num: 2}, Version: version, Prior: prior,
					Meta: item.Metadata{Source: "addr:evil", Destinations: []string{"addr:a"}, Kind: "message"},
				}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rawFrame(frameSyncResponse, body)
	}
	cases := map[string][]byte{
		"seq 0":           hostile(vclock.Version{Replica: "evil", Seq: 0}),
		"no creator":      hostile(vclock.Version{Seq: 7}),
		"zero prior":      hostile(vclock.Version{Replica: "evil", Seq: 2}, vclock.Version{}),
		"seq 0 in prior":  hostile(vclock.Version{Replica: "evil", Seq: 2}, vclock.Version{Replica: "evil", Seq: 1}, vclock.Version{Replica: "x"}),
		"creatorless old": hostile(vclock.Version{Replica: "evil", Seq: 2}, vclock.Version{Seq: 1}),
	}
	untouched := func(t *testing.T, a *replica.Replica, before *vclock.Knowledge) {
		t.Helper()
		if total, _, _ := a.StoreLen(); total != 0 {
			t.Errorf("rejected batch left %d items in the store", total)
		}
		if !a.Knowledge().Equal(before) {
			t.Errorf("rejected batch perturbed knowledge: %s", a.Knowledge())
		}
	}
	for name, frame := range cases {
		t.Run("serve/"+name, func(t *testing.T) {
			a := node(t, "a", "addr:a")
			before := a.Knowledge()
			srv := NewServer(a, 0)
			srv.Metrics = &obs.TransportMetrics{}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			w, err := openHostile(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer w.conn.Close()
			// Leg 1, honestly: pull an (empty) batch from the server.
			if err := w.writeRequest(&replica.SyncRequest{TargetID: "evil", Knowledge: vclock.NewKnowledge()}); err != nil {
				t.Fatal(err)
			}
			if _, err := w.readResponse(); err != nil {
				t.Fatal(err)
			}
			// Leg 2: answer the server's pull with the forged batch.
			if _, err := w.readRequest(); err != nil {
				t.Fatal(err)
			}
			if _, err := w.conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if err := expectClosed(w.conn); err != nil {
				t.Error(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if snap := srv.Metrics.Snapshot(); snap.ValidationRejected != 1 || snap.EncountersServed != 0 {
				t.Errorf("counters after forged batch: %+v", snap)
			}
			untouched(t, a, before)
		})
		t.Run("dial/"+name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				served <- func() error {
					conn, err := ln.Accept()
					if err != nil {
						return err
					}
					defer conn.Close()
					w := newWireIO(conn, 0)
					if _, err := w.readHello(); err != nil {
						return err
					}
					if err := w.writeHello("evil"); err != nil {
						return err
					}
					if _, err := w.readRequest(); err != nil {
						return err
					}
					_, err = conn.Write(frame)
					return err
				}()
			}()
			a := node(t, "a", "addr:a")
			before := a.Knowledge()
			m := &obs.TransportMetrics{}
			_, err = dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second, DialOptions{Metrics: m})
			if err == nil || errClass(err) != "validation" {
				t.Errorf("forged batch: dialer returned %v, want a validation error", err)
			}
			if err := <-served; err != nil {
				t.Fatalf("fake listener: %v", err)
			}
			if got := m.ValidationRejected.Value(); got != 1 {
				t.Errorf("ValidationRejected = %d, want 1", got)
			}
			untouched(t, a, before)
		})
	}
}

// TestForgedTransientRejected: a batch item's transient fields — TTL, copy
// allowance, hop count — are non-negative integers that replicas count down
// or up. A forged one must not be stored: a hop count of -1e9 would put the
// copy first in every MaxProp queue it reaches, and each relay would pass the
// forged count on. The dialer refuses the whole response as a validation
// error, applies nothing and counts the sync as aborted.
func TestForgedTransientRejected(t *testing.T) {
	dl := newDialer(t)
	honest, err := wire.AppendSyncResponse(nil, &replica.SyncResponse{
		SourceID: "evil",
		Items: []replica.BatchItem{{
			Item: &item.Item{
				ID: item.ID{Creator: "evil", Num: 1}, Version: vclock.Version{Replica: "evil", Seq: 1},
				Meta: item.Metadata{Source: "addr:evil", Destinations: []string{"addr:far"}, Kind: "message"},
			},
			Transient: item.TransientMap{item.FieldHops: 7}.Transient(),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hop count's value sits right after its name; forge it in place.
	name := prim.AppendString(nil, item.FieldHops.String())
	at := bytes.Index(honest, append(name, prim.AppendFloat64(nil, 7)...))
	if at < 0 {
		t.Fatal("the hop count is not in the encoded batch")
	}
	at += len(name)
	for label, v := range map[string]float64{
		"negative":   -1e9,
		"NaN":        math.NaN(),
		"infinite":   math.Inf(1),
		"fractional": 2.5,
		"too large":  1e300,
	} {
		t.Run(label, func(t *testing.T) {
			body := bytes.Clone(honest)
			prim.AppendFloat64(body[:at], v)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				served <- func() error {
					conn, err := ln.Accept()
					if err != nil {
						return err
					}
					defer conn.Close()
					w := newWireIO(conn, 0)
					if _, err := w.readHello(); err != nil {
						return err
					}
					if err := w.writeHello("evil"); err != nil {
						return err
					}
					if _, err := w.readRequest(); err != nil {
						return err
					}
					_, err = conn.Write(rawFrame(frameSyncResponse, body))
					return err
				}()
			}()
			a := node(t, "a", "addr:a")
			before := a.Knowledge()
			m := &obs.TransportMetrics{}
			_, err = dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second, DialOptions{Metrics: m})
			if err == nil || errClass(err) != "validation" {
				t.Errorf("hops = %v: dialer returned %v, want a validation error", v, err)
			}
			if err := <-served; err != nil {
				t.Fatalf("fake listener: %v", err)
			}
			if total, _, _ := a.StoreLen(); total != 0 {
				t.Errorf("forged batch left %d items in the store", total)
			}
			if !a.Knowledge().Equal(before) {
				t.Errorf("forged batch perturbed knowledge: %s", a.Knowledge())
			}
			if got := a.Stats().SyncsAborted; got != 1 {
				t.Errorf("SyncsAborted = %d, want 1", got)
			}
			if got := m.ValidationRejected.Value(); got != 1 {
				t.Errorf("ValidationRejected = %d, want 1", got)
			}
		})
	}
}

// TestStrayKnowledgeDemandRefused: a listener may answer a request carrying a
// knowledge delta with one demand for exact knowledge, and nothing else. A
// demand answering an exact frame — the fallback retry, or the first request
// of a summaries-off dialer — is refused as a validation error before any
// further round: the dialer applies nothing and counts the sync as aborted.
func TestStrayKnowledgeDemandRefused(t *testing.T) {
	dl := newDialer(t)
	for _, tc := range []struct {
		name      string
		summaries bool // the dialer's first request carries a delta
		fallbacks int  // exact retries the dialer sends
	}{
		{"second demand", true, 1},
		{"demand for an exact frame", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				w := newWireIO(conn, 0)
				if _, err := w.readHello(); err != nil {
					return
				}
				if err := w.writeHello("evil"); err != nil {
					return
				}
				// Demand knowledge in answer to every request, twice at
				// most, until the dialer hangs up.
				for range 2 {
					if _, err := w.readRequest(); err != nil {
						return
					}
					if _, err := w.writeResponse(&replica.SyncResponse{SourceID: "evil", NeedKnowledge: true}); err != nil {
						return
					}
				}
			}()
			a := replica.New(replica.Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: tc.summaries})
			if tc.summaries {
				// A frontier for the listener makes the next request a delta.
				a.MakeSummaryRequest("evil", 0)
			}
			before := a.Knowledge()
			m := &obs.TransportMetrics{}
			_, err = dl.Encounter(a, ln.Addr().String(), 0, 2*time.Second, DialOptions{Metrics: m})
			if errClass(err) != "validation" {
				t.Errorf("dialer returned %v, want a validation error", err)
			}
			<-served
			st := a.Stats()
			if st.SyncsAborted != 1 {
				t.Errorf("SyncsAborted = %d, want 1", st.SyncsAborted)
			}
			if st.SummaryFallbacks != tc.fallbacks {
				t.Errorf("SummaryFallbacks = %d, want %d", st.SummaryFallbacks, tc.fallbacks)
			}
			if !a.Knowledge().Equal(before) {
				t.Errorf("refused demand perturbed knowledge: %s", a.Knowledge())
			}
			if got := m.ValidationRejected.Value(); got != 1 {
				t.Errorf("ValidationRejected = %d, want 1", got)
			}
		})
	}
}
