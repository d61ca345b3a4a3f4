package transport

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
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
// over real TCP with summary request modes on or off at each end. Digest,
// delta and exact knowledge are request modes of the one protocol, each side
// choosing its own, so the delivered results must be identical in every
// combination; a summaries-enabled side of a recurring pair must move to
// delta knowledge, and a disabled side must emit no summary frame.
func TestSummaryModesDeliverIdentically(t *testing.T) {
	type outcome struct {
		first, second applyPair
		delivered     int
	}
	modes := []struct{ server, dialer bool }{
		{false, false}, {true, true}, {true, false}, {false, true},
	}
	var want outcome
	for i, m := range modes {
		a := summaryNode("a", "addr:a", m.server)
		b := summaryNode("b", "addr:b", m.dialer)
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		addr, _ := serve(t, a, 0)

		res1, err := Encounter(b, addr, 0, testTimeout)
		if err != nil {
			t.Fatalf("server=%v dialer=%v first encounter: %v", m.server, m.dialer, err)
		}
		// New traffic between encounters so the second sync ships items too —
		// the recurring-pair path must move data, not just empty frames.
		sendMsg(a, "addr:a", "addr:b")
		sendMsg(b, "addr:b", "addr:a")
		res2, err := Encounter(b, addr, 0, testTimeout)
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
			if !side.summaries && st.KnowledgeDeltas+st.KnowledgeDigests != 0 {
				t.Errorf("server=%v dialer=%v: %s emitted summary frames with summaries off", m.server, m.dialer, side.r.ID())
			}
		}
	}
}

// TestDigestFallbackOverTCP drives an encounter whose request
// carries a Bloom digest that is necessarily ambiguous — the server stores
// items whose versions are in the target's exception set, and the filter has
// no false negatives — so the exact-knowledge fallback round runs end to end
// over TCP. The delivered batch must still match an exact-knowledge run.
func TestDigestFallbackOverTCP(t *testing.T) {
	build := func(summaries bool) (*replica.Replica, *replica.Replica) {
		a := replica.New(replica.Config{
			ID: "a", OwnAddresses: []string{"addr:a"},
			Policy:        epidemic.New(10),
			SyncSummaries: summaries, SummaryDigestMin: 1,
		})
		b := replica.New(replica.Config{
			ID: "b", OwnAddresses: []string{"addr:b"},
			SyncSummaries: summaries, SummaryDigestMin: 1,
		})
		// Each feeder creates three items addressed only to a before three
		// addressed to both a and b, so b's knowledge of the feeder is pure
		// exceptions above an empty base — and a, receiving the dual-addressed
		// items through its own filter, holds versions inside b's exception
		// set: candidates the Bloom digest can never decide (no false
		// negatives), guaranteeing the fallback round.
		for i := 0; i < 4; i++ {
			fid := fmt.Sprintf("f%d", i)
			f := replica.New(replica.Config{
				ID: vclock.ReplicaID(fid), OwnAddresses: []string{"addr:" + fid},
			})
			for j := 0; j < 3; j++ {
				sendMsg(f, "addr:"+fid, "addr:a")
			}
			for j := 0; j < 3; j++ {
				f.CreateItem(item.Metadata{
					Source:       "addr:" + fid,
					Destinations: []string{"addr:a", "addr:b"},
					Kind:         "message",
				}, []byte("dual"))
			}
			replica.Encounter(f, b, 0)
			replica.Encounter(f, a, 0)
		}
		for i := 0; i < 4; i++ {
			sendMsg(a, "addr:a", "addr:b")
		}
		return a, b
	}

	run := func(summaries bool) (applyPair, int, int, int) {
		a, b := build(summaries)
		srv := NewServer(a, 0)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := EncounterOpts(b, addr.String(), 0, testTimeout, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return pair(res), b.Stats().Delivered, b.Stats().KnowledgeDigests, b.Stats().SummaryFallbacks
	}

	plain, plainDelivered, _, _ := run(false)
	sum, sumDelivered, digests, fallbacks := run(true)
	if plain != sum || plainDelivered != sumDelivered {
		t.Errorf("digest-mode TCP encounter delivered differently than exact mode:\nexact  %+v (delivered %d)\ndigest %+v (delivered %d)",
			plain, plainDelivered, sum, sumDelivered)
	}
	if digests == 0 {
		t.Error("scenario never sent a Bloom digest — not exercising the summary path")
	}
	if fallbacks == 0 {
		t.Error("guaranteed-ambiguous digest did not trigger the fallback round")
	}
	if sum.BtoA.Duplicates != 0 {
		t.Errorf("fallback round re-sent known items: %d duplicates", sum.BtoA.Duplicates)
	}
}
