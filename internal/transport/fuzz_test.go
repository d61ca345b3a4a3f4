package transport

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// byteConn is a net.Conn that replays a fixed client transcript: reads drain
// the recorded bytes then hit EOF, writes succeed and are discarded. Using it
// instead of a real socket makes each fuzz exec a pure in-process parse —
// microseconds instead of an I/O-deadline wait — while driving exactly the
// code path a TCP peer reaches. Deadline behavior (slow-loris and friends)
// is covered separately by robustness_test.go.
type byteConn struct {
	r bytes.Reader
}

// replay returns a byteConn whose peer sends exactly data.
func replay(data []byte) *byteConn {
	c := &byteConn{}
	c.r.Reset(data)
	return c
}

func (c *byteConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return fuzzAddr{} }
func (c *byteConn) RemoteAddr() net.Addr               { return fuzzAddr{} }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

type fuzzAddr struct{}

func (fuzzAddr) Network() string { return "fuzz" }
func (fuzzAddr) String() string  { return "fuzz" }

// serveConnSeeds builds the seed inputs, shared by the fuzz target and the
// corpus generator so the checked-in files never drift from f.Add.
func serveConnSeeds(tb testing.TB) map[string][]byte {
	transcript := validClientTranscript(tb)
	return map[string][]byte{
		"seed-empty":            {},
		"seed-garbage":          []byte("not a frame stream"),
		"seed-truncated-hello":  transcript[:8],
		"seed-bad-magic":        rawHello("GOB!", protocolVersion, "peer"),
		"seed-version-mismatch": rawHello(helloMagic, protocolVersion+1, "peer"),
		"seed-oversized-id":     rawHello(helloMagic, protocolVersion, strings.Repeat("x", 300)),
		"seed-valid":            transcript,
		"seed-two-encounters":   twoEncounterTranscript(tb),
		"seed-hello-mid-session": append(transcript[:len(transcript):len(transcript)],
			rawHello(helloMagic, protocolVersion, "peer")...),
	}
}

// FuzzServeConn feeds arbitrary bytes to the server side of an encounter:
// the frame stream is the system's outermost parse-hostile surface, reachable
// by anyone who can dial the TCP port. The invariant under test is that a
// hostile or corrupt client transcript can never panic the handler — every
// malformed frame must surface as an error, applied transactionally (nothing
// half-ingested) — and that the handler always returns within its deadline.
// The seed corpus under testdata/fuzz (regenerated with
// `go test -tags corpusgen -run WriteFuzzCorpus`) includes a full valid
// client transcript, so mutation explores the deep protocol path (hello →
// request → reverse response), not just first-frame rejections.
func FuzzServeConn(f *testing.F) {
	for _, seed := range serveConnSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := replica.New(replica.Config{ID: "srv", OwnAddresses: []string{"addr:srv"}})
		r.CreateItem(item.Metadata{
			Source: "addr:srv", Destinations: []string{"addr:peer"}, Kind: "message",
		}, []byte("payload"))
		srv := NewServer(r, 4)
		srv.MaxWireBytes = 1 << 20

		// The only acceptable outcomes are a clean return or a protocol
		// error; a panic fails the run.
		_ = srv.serveConn(replay(data))

		// Whatever the transcript did, the replica must remain internally
		// consistent: a usable knowledge structure and a servable store.
		if r.Knowledge() == nil {
			t.Fatal("replica knowledge destroyed by hostile transcript")
		}
		probe := replica.New(replica.Config{ID: "probe", OwnAddresses: []string{"addr:probe"}})
		resp := r.HandleSyncRequest(probe.MakeSyncRequest(0))
		probe.ApplyBatch(resp)
	})
}

// validClientTranscript builds the full byte stream an honest dialer sends
// during one encounter: hello, sync request, reverse sync response, exactly
// as Encounter would produce against a peer holding one message.
func validClientTranscript(f testing.TB) []byte {
	f.Helper()
	peer := replica.New(replica.Config{ID: "peer", OwnAddresses: []string{"addr:peer"}})
	it := peer.CreateItem(item.Metadata{
		Source: "addr:peer", Destinations: []string{"addr:srv"}, Kind: "message",
	}, []byte("from peer"))

	reqBody, err := wire.AppendSyncRequest(nil, peer.MakeSyncRequest(4))
	if err != nil {
		f.Fatal(err)
	}
	know := vclock.NewKnowledge()
	know.Add(it.Version)
	resp := &replica.SyncResponse{
		SourceID: "peer",
		Items: []replica.BatchItem{{
			Item:      it,
			Transient: item.TransientMap{item.FieldHops: 1}.Transient(),
		}},
		LearnedKnowledge: know,
	}
	respBody, err := wire.AppendSyncResponse(nil, resp)
	if err != nil {
		f.Fatal(err)
	}
	return bytes.Join([][]byte{
		rawHello(helloMagic, protocolVersion, "peer"),
		rawFrame(frameSyncRequest, reqBody),
		rawFrame(frameSyncResponse, respBody),
	}, nil)
}

// twoEncounterTranscript is an honest dialer's byte stream for a session of
// two encounters: validClientTranscript, then the second encounter's request
// and reverse response from a peer that applied the first one's batch.
func twoEncounterTranscript(tb testing.TB) []byte {
	tb.Helper()
	peer := replica.New(replica.Config{ID: "peer", OwnAddresses: []string{"addr:peer"}})
	peer.CreateItem(item.Metadata{
		Source: "addr:peer", Destinations: []string{"addr:srv"}, Kind: "message",
	}, []byte("from peer"))
	// FuzzServeConn's server, met once.
	srv := replica.New(replica.Config{ID: "srv", OwnAddresses: []string{"addr:srv"}})
	srv.CreateItem(item.Metadata{
		Source: "addr:srv", Destinations: []string{"addr:peer"}, Kind: "message",
	}, []byte("payload"))
	replica.Encounter(peer, srv, 4)
	reqBody, err := wire.AppendSyncRequest(nil, peer.MakeSyncRequest(4))
	if err != nil {
		tb.Fatal(err)
	}
	respBody, err := wire.AppendSyncResponse(nil, peer.HandleSyncRequest(srv.MakeSyncRequest(4)))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Join([][]byte{
		validClientTranscript(tb),
		rawFrame(frameSyncRequest, reqBody),
		rawFrame(frameSyncResponse, respBody),
	}, nil)
}

// The session seeds reach past the first encounter: two honest encounters
// are both served, and a hello after the first fails validation once that
// encounter is done.
func TestServeConnSessionSeeds(t *testing.T) {
	seeds := serveConnSeeds(t)
	for name, want := range map[string]struct {
		served int64
		class  string
	}{"seed-two-encounters": {2, ""}, "seed-hello-mid-session": {1, "validation"}} {
		r := replica.New(replica.Config{ID: "srv", OwnAddresses: []string{"addr:srv"}})
		srv := NewServer(r, 4)
		m := &obs.TransportMetrics{}
		srv.Metrics = m
		err := srv.serveConn(replay(seeds[name]))
		if got := m.EncountersServed.Value(); got != want.served || errClass(err) != want.class {
			t.Errorf("%s: served %d, error %v; want %d served and class %q", name, got, err, want.served, want.class)
		}
	}
}

// TestServeConnRejectsMalformedFrames pins the validation layer the fuzzer
// exercises probabilistically: structurally malformed frames that the wire
// codec decodes happily — no knowledge frame, negative budgets, a knowledge
// demand smuggling items — must be rejected at the transport boundary with
// nothing applied, because the replica's in-process contract assumes they
// cannot occur.
func TestServeConnRejectsMalformedFrames(t *testing.T) {
	evilItem := &item.Item{
		ID:      item.ID{Creator: "evil", Num: 1},
		Version: vclock.Version{Replica: "evil", Seq: 1},
		Meta:    item.Metadata{Destinations: []string{"addr:srv"}, Kind: "message"},
	}
	cases := []struct {
		name string
		req  *replica.SyncRequest
		resp *replica.SyncResponse
	}{
		{name: "no knowledge frame", req: &replica.SyncRequest{TargetID: "evil"}},
		{name: "negative max items", req: &replica.SyncRequest{
			TargetID: "evil", Knowledge: vclock.NewKnowledge(), MaxItems: -1,
		}},
		{name: "negative max bytes", req: &replica.SyncRequest{
			TargetID: "evil", Knowledge: vclock.NewKnowledge(), MaxBytes: -1,
		}},
		{name: "knowledge demand with items", req: &replica.SyncRequest{
			TargetID: "evil", Knowledge: vclock.NewKnowledge(),
		}, resp: &replica.SyncResponse{
			SourceID: "evil", NeedKnowledge: true, Items: []replica.BatchItem{{Item: evilItem}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := replica.New(replica.Config{ID: "srv", OwnAddresses: []string{"addr:srv"}})
			srv := NewServer(r, 4)
			srv.IOTimeout = 2 * time.Second
			errc := make(chan error, 1)
			srv.OnError = func(err error) { errc <- err }
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			w, err := openHostile(addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer w.conn.Close()
			if err := w.writeRequest(tc.req); err != nil {
				t.Fatal(err)
			}
			if tc.resp != nil {
				// The request was valid; walk the protocol to the reverse
				// leg and deliver the malformed response there.
				if _, err := w.readResponse(); err != nil {
					t.Fatal(err)
				}
				if _, err := w.readRequest(); err != nil {
					t.Fatal(err)
				}
				if _, err := w.writeResponse(tc.resp); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-errc:
				if errClass(err) != "validation" {
					t.Fatalf("server error %v is class %q, want validation", err, errClass(err))
				}
			case <-time.After(3 * time.Second):
				t.Fatal("server reported no protocol error")
			}
			total, _, _ := r.StoreLen()
			if total != 0 {
				t.Fatalf("malformed exchange mutated the store: %d items", total)
			}
		})
	}
}
