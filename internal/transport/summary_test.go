package transport

import (
	"testing"

	"replidtn/internal/replica"
	"replidtn/internal/vclock"
)

// summaryNode builds a replica with summary request modes on or off.
func summaryNode(id, addr string, summaries bool) *replica.Replica {
	return replica.New(replica.Config{
		ID:            vclock.ReplicaID(id),
		OwnAddresses:  []string{addr},
		SyncSummaries: summaries,
	})
}

// applyPair is the observable outcome of one encounter as the dialer sees
// it: what the pulled batch did locally, and how many items moved each way.
// (The server-side apply stats travel back only as the done frame's count.)
type applyPair struct {
	BtoA   replica.ApplyStats
	SentAB int
	SentBA int
}

func pair(res replica.EncounterResult) applyPair {
	return applyPair{
		BtoA:   res.BtoA.Apply,
		SentAB: res.AtoB.Sent,
		SentBA: res.BtoA.Sent,
	}
}

// TestSummaryModesDeliverIdentically runs the same two-encounter exchange
// over real TCP with summary request modes on or off at each end. Delta and
// exact knowledge are request modes of the one protocol, each side choosing
// its own, so the delivered results must be identical in every combination;
// a summaries-enabled side of a recurring pair must move to delta knowledge,
// and a disabled side must emit no summary frame.
func TestSummaryModesDeliverIdentically(t *testing.T) {
	dl := newDialer(t)
	type outcome struct {
		first, second applyPair
		delivered     int
	}
	var want outcome
	for i, m := range summaryModes {
		a := summaryNode("a", "addr:a", m.server)
		b := summaryNode("b", "addr:b", m.dialer)
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		addr, _ := serve(t, a, 0)

		res1, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
		if err != nil {
			t.Fatalf("server=%v dialer=%v first encounter: %v", m.server, m.dialer, err)
		}
		// New traffic between encounters so the second sync ships items too —
		// the recurring-pair path must move data, not just empty frames.
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		res2, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
		if err != nil {
			t.Fatalf("server=%v dialer=%v second encounter: %v", m.server, m.dialer, err)
		}
		got := outcome{pair(res1), pair(res2), a.Stats().Delivered + b.Stats().Delivered}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("server=%v dialer=%v delivered differently than exact/exact:\ngot  %+v\nwant %+v",
				m.server, m.dialer, got, want)
		}
		if got.delivered != 5 {
			t.Errorf("server=%v dialer=%v delivered %d of 5 messages", m.server, m.dialer, got.delivered)
		}
		for _, side := range []struct {
			r         *replica.Replica
			summaries bool
		}{{a, m.server}, {b, m.dialer}} {
			st := side.r.Stats()
			if side.summaries && st.KnowledgeDeltas == 0 {
				t.Errorf("server=%v dialer=%v: %s did not upgrade to delta knowledge", m.server, m.dialer, side.r.ID())
			}
			if !side.summaries && st.KnowledgeDeltas != 0 {
				t.Errorf("server=%v dialer=%v: %s emitted summary frames with summaries off", m.server, m.dialer, side.r.ID())
			}
		}
	}
}

// summaryModes is every combination of summary request modes at the server
// and the dialer; the first entry, exact knowledge at both ends, is the
// reference the others must match.
var summaryModes = []struct{ server, dialer bool }{
	{false, false}, {true, true}, {true, false}, {false, true},
}

// TestDigestFallbackOverTCP runs the exact-knowledge fallback round end to
// end over TCP. After two encounters the server restarts from its snapshot,
// so a summaries-enabled dialer's next request carries delta knowledge
// against a baseline the server no longer holds, and the server must ask for
// exact knowledge instead. That third encounter must deliver exactly what
// the exact-knowledge run delivers, re-send no known item, and record
// exactly one fallback on a summaries-enabled dialer and none on the server.
func TestDigestFallbackOverTCP(t *testing.T) {
	dl := newDialer(t)
	type outcome struct {
		third     applyPair
		delivered int
	}
	var want outcome
	for i, m := range summaryModes {
		a := summaryNode("a", "addr:a", m.server)
		b := summaryNode("b", "addr:b", m.dialer)
		addr, _ := serve(t, a, 0)
		for n := 0; n < 2; n++ {
			sendMsg(a, "addr:a", "addr:b")
			sendMsg(b, "addr:b", "addr:a")
			if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
				t.Fatalf("server=%v dialer=%v encounter %d: %v", m.server, m.dialer, n+1, err)
			}
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		res, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
		if err != nil {
			t.Fatalf("server=%v dialer=%v encounter after restart: %v", m.server, m.dialer, err)
		}
		got := outcome{pair(res), a.Stats().Delivered + b.Stats().Delivered}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("server=%v dialer=%v delivered differently than exact/exact after restart:\ngot  %+v\nwant %+v",
				m.server, m.dialer, got, want)
		}
		if got.delivered != 6 {
			t.Errorf("server=%v dialer=%v delivered %d of 6 messages", m.server, m.dialer, got.delivered)
		}
		if res.BtoA.Apply.Duplicates != 0 {
			t.Errorf("server=%v dialer=%v: fallback round re-sent %d known items", m.server, m.dialer, res.BtoA.Apply.Duplicates)
		}
		wantFallbacks := 0
		if m.dialer {
			wantFallbacks = 1
		}
		if got := b.Stats().SummaryFallbacks; got != wantFallbacks {
			t.Errorf("server=%v dialer=%v: dialer recorded %d fallbacks, want %d", m.server, m.dialer, got, wantFallbacks)
		}
		if got := a.Stats().SummaryFallbacks; got != 0 {
			t.Errorf("server=%v dialer=%v: restarted server recorded %d fallbacks, want 0", m.server, m.dialer, got)
		}
	}
}
