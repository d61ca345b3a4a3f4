package replica

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
)

// summaryScenario drives one randomized twin build: identical item creation
// and encounter order, with summary mode on or off at every replica. The
// returned IDs are every item addressed to the target.
func summaryScenario(seed int64, summaries bool) (a, b *Replica, toB []item.ID) {
	rng := rand.New(rand.NewSource(seed))
	a = New(Config{
		ID: "a", OwnAddresses: []string{"addr:a"},
		Policy:        epidemic.New(10),
		SyncSummaries: summaries,
	})
	b = New(Config{
		ID: "b", OwnAddresses: []string{"addr:b"},
		SyncSummaries: summaries,
	})
	create := func(r *Replica, from string, dests []string) {
		it := r.CreateItem(item.Metadata{
			Source: from, Destinations: dests, Kind: "message",
		}, []byte("payload"))
		for _, d := range dests {
			if d == "addr:b" {
				toB = append(toB, it.ID)
				break
			}
		}
	}
	// Feeders shape b's knowledge: items addressed only to a leave gaps in
	// b's view of the feeder, so b's exception set ranges from empty (no
	// feeders, or to-b prefixes) to all-exception (to-a items first).
	// Dual-addressed items reach both replicas through plain filter
	// matching, which plants versions from b's exception set in a's store.
	feeders := rng.Intn(4)
	for i := 0; i < feeders; i++ {
		fid := fmt.Sprintf("f%d", i)
		f := New(Config{ID: vclock.ReplicaID(fid), OwnAddresses: []string{"addr:" + fid}})
		for j, n := 0, rng.Intn(7); j < n; j++ {
			var dests []string
			switch rng.Intn(3) {
			case 0:
				dests = []string{"addr:a"}
			case 1:
				dests = []string{"addr:b"}
			default:
				dests = []string{"addr:a", "addr:b"}
			}
			create(f, "addr:"+fid, dests)
		}
		Encounter(f, b, 0)
		Encounter(f, a, 0)
	}
	for j, n := 0, rng.Intn(4); j < n; j++ {
		create(a, "addr:a", []string{"addr:b"})
	}
	return a, b, toB
}

// restartInPlace restarts r from its own snapshot, as a crashed node
// recovering its durable state would: a new epoch, and no summary-mode
// frontiers or baselines.
func restartInPlace(t *testing.T, r *Replica) {
	t.Helper()
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSummarySyncDeliversExactly is the property-test satellite: across
// random knowledge/exception shapes — including empty knowledge and
// all-exception knowledge — a summary-mode sync must deliver exactly what a
// full-knowledge sync delivers: never a duplicate, never a lost item, and
// apply-stat-identical to the exact twin. On a seeded share of cases the
// source restarts between the two syncs, so the target's delta meets no
// baseline and the fallback round runs.
func TestQuickSummarySyncDeliversExactly(t *testing.T) {
	var deltas, fallbacks int
	prop := func(seed int64, restart bool) bool {
		run := func(summaries bool) (SyncResult, SyncResult, *Replica, []item.ID) {
			a, b, toB := summaryScenario(seed, summaries)
			r1 := Sync(a, b, 0)
			// Fresh traffic, then a second sync: recurring pairs ride the
			// delta path in summary mode.
			extra := a.CreateItem(item.Metadata{
				Source: "addr:a", Destinations: []string{"addr:b"}, Kind: "message",
			}, []byte("late"))
			toB = append(toB, extra.ID)
			if restart {
				restartInPlace(t, a)
			}
			r2 := Sync(a, b, 0)
			return r1, r2, b, toB
		}
		p1, p2, pb, ids := run(false)
		s1, s2, sb, _ := run(true)
		deltas += sb.Stats().KnowledgeDeltas
		fallbacks += sb.Stats().SummaryFallbacks
		if p1.Apply != s1.Apply || p2.Apply != s2.Apply {
			t.Logf("seed %d: apply stats diverged:\nexact %+v / %+v\nsummary %+v / %+v", seed, p1.Apply, p2.Apply, s1.Apply, s2.Apply)
			return false
		}
		if sb.Stats().Duplicates != 0 {
			t.Logf("seed %d: summary sync produced %d duplicates", seed, sb.Stats().Duplicates)
			return false
		}
		for _, id := range ids {
			if !sb.HasItem(id) {
				t.Logf("seed %d: summary sync lost item %s", seed, id)
				return false
			}
			if !pb.HasItem(id) {
				t.Logf("seed %d: exact twin lost item %s — scenario broken", seed, id)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	// The corpus must actually exercise the summary machinery, including the
	// refused-delta fallback, or the property is vacuous.
	if deltas == 0 {
		t.Error("no run sent a knowledge delta")
	}
	if fallbacks == 0 {
		t.Error("no run hit the exact-knowledge fallback round")
	}

	// The same property over the differential suite's relay-shaped worlds
	// (buildScenario: several creators, updates, tombstones, a seq-0 version,
	// knowledge with base, exceptions and gaps), under every policy and
	// budget: two syncs — the second, after fresh traffic and perhaps a
	// source restart, on the delta path — must apply identically with
	// summaries on and off and leave both replicas' stores, spray allowances
	// included, the same.
	deltas, fallbacks = 0, 0
	wide := func(seed int64, policy, items, maxItems uint8, maxBytes uint16, knownFrac, tombFrac uint8, restart bool) bool {
		sc := diffScenario{
			seed: seed, policy: int(policy % 4), items: int(items%120) + 1,
			maxItems: int(maxItems % 12), maxBytes: int64(maxBytes % 2048),
			knownFrac: int(knownFrac % 101), tombFrac: int(tombFrac % 40),
		}
		run := func(summaries bool) (r1, r2 SyncResult, src, tgt *Replica) {
			src, tgt, _ = buildScenario(sc, summaries)
			budget := Budget{Items: sc.maxItems, Bytes: sc.maxBytes}
			r1 = pullBudget(src, tgt, budget)
			src.CreateItem(item.Metadata{
				Source: "addr:src", Destinations: []string{"addr:0"}, Kind: "message",
			}, []byte("late"))
			if restart {
				restartInPlace(t, src)
			}
			r2 = pullBudget(src, tgt, budget)
			return r1, r2, src, tgt
		}
		p1, p2, psrc, ptgt := run(false)
		s1, s2, ssrc, stgt := run(true)
		deltas += stgt.Stats().KnowledgeDeltas
		fallbacks += stgt.Stats().SummaryFallbacks
		if p1.Apply != s1.Apply || p2.Apply != s2.Apply || p1.Sent != s1.Sent || p2.Sent != s2.Sent {
			t.Logf("scenario %+v: syncs diverged:\nexact %+v / %+v\nsummary %+v / %+v", sc, p1, p2, s1, s2)
			return false
		}
		if dup := s1.Apply.Duplicates + s2.Apply.Duplicates; dup != 0 {
			t.Logf("scenario %+v: summary syncs produced %d duplicates", sc, dup)
			return false
		}
		for name, pair := range map[string][2]*Replica{"source": {psrc, ssrc}, "target": {ptgt, stgt}} {
			if err := sameStores(pair[0], pair[1]); err != nil {
				t.Logf("scenario %+v: %s stores diverged: %v", sc, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(wide, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
	if deltas == 0 || fallbacks == 0 {
		t.Errorf("relay-shaped corpus sent %d deltas and hit %d fallbacks; want both", deltas, fallbacks)
	}
}

// TestDeltaRecurringPair walks a recurring pair through the delta upgrade
// path: tagged full on first contact, deltas after, with every sync's
// knowledge-byte accounting visible in the result.
func TestDeltaRecurringPair(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: true})
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, SyncSummaries: true})
	send(a, "addr:a", "addr:b")
	r1 := Sync(a, b, 0)
	if r1.Apply.Delivered != 1 || r1.Fallback {
		t.Fatalf("first sync: %+v", r1)
	}
	if got := b.Stats().KnowledgeFulls; got != 1 {
		t.Errorf("first contact sent %d full frames, want 1 (tagged, frontier-establishing)", got)
	}
	for i := 0; i < 3; i++ {
		send(a, "addr:a", "addr:b")
		r := Sync(a, b, 0)
		if r.Apply.Delivered != 1 || r.Fallback {
			t.Fatalf("delta sync %d: %+v", i, r)
		}
		if r.KnowledgeBytes <= 0 {
			t.Errorf("delta sync %d: no knowledge bytes accounted", i)
		}
		if got, want := b.Stats().KnowledgeDeltas, i+1; got != want {
			t.Errorf("after delta sync %d: %d delta frames, want %d", i, got, want)
		}
	}
	if got := b.Stats().SummaryFallbacks; got != 0 {
		t.Errorf("healthy recurring pair hit %d fallbacks", got)
	}
}

// TestSummaryBasesOutliveLaterWrites: both sides keep a summary-mode
// request as the base of the next delta, in copies of their own, and Pull
// gives the request back. The routing state and knowledge the requester
// keeps for its next delta to the source, and the baseline the source
// keeps, read the same bytes however both replicas' policies and knowledge
// change afterwards.
func TestSummaryBasesOutliveLaterWrites(t *testing.T) {
	var clock int64
	now := func() int64 { return clock }
	node := func(id vclock.ReplicaID) *Replica {
		return New(Config{
			ID: id, OwnAddresses: []string{"addr:" + string(id)}, Now: now, SyncSummaries: true,
			Policy: maxprop.New(id, 0, now, "addr:"+string(id)),
		})
	}
	a, b, c := node("a"), node("b"), node("c")
	for _, r := range []*Replica{a, b, c} {
		send(r, "addr:"+string(r.ID()), "addr:x")
	}
	Encounter(a, c, 0)
	Encounter(b, c, 0)
	Encounter(a, b, 0) // every table, home map and knowledge holds every node
	clock++
	Sync(b, a, 0) // a pulls from b
	kept := func() string {
		var out []byte
		for _, x := range []struct {
			rt   routing.Request
			know *vclock.Knowledge
		}{{a.frontiers["b"].routing, a.frontiers["b"].know}, {b.peerKnow["a"].routing, b.peerKnow["a"].know}} {
			out = x.rt.(*maxprop.Request).AppendBinary(out)
			k, err := x.know.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, k...)
		}
		return string(out)
	}
	want := kept()
	for i := 0; i < 3; i++ {
		clock++
		send(a, "addr:a", "addr:c")
		send(c, "addr:c", "addr:a")
		Encounter(a, c, 0) // a's table, homes and knowledge all change
		Encounter(b, c, 0)
	}
	if kept() != want {
		t.Error("a kept delta base or baseline changed after later writes")
	}
}

// TestSummaryBasesHoldWhatWasSent: a summary-mode request is the base of the
// pair's next delta on both sides, and Pull gives it back to its policy once
// its sync is over, so both sides keep copies of their own. After a first
// contact (a tagged exact frame) and after each delta, the target's frontier
// and the source's baseline hold the routing state the request carried and
// the knowledge it stood for, through the target's later writes and
// requests — which, the request given back, write the policy's vector,
// table and request shell in place. It runs for both delta policies, and
// with the source reading the request itself, as in process, or its
// knowledge decoded, as off the wire.
func TestSummaryBasesHoldWhatWasSent(t *testing.T) {
	policies := map[string]func(id vclock.ReplicaID, now func() int64) routing.Policy{
		"maxprop": func(id vclock.ReplicaID, now func() int64) routing.Policy {
			return maxprop.New(id, 0, now, "addr:"+string(id))
		},
		"prophet": func(id vclock.ReplicaID, now func() int64) routing.Policy {
			return prophet.New(prophet.DefaultParams(), now, "addr:"+string(id))
		},
	}
	forwards := map[string]func(t *testing.T, req *SyncRequest) *SyncRequest{
		"request itself": func(_ *testing.T, req *SyncRequest) *SyncRequest { return req },
		// No clone of the source's own then keeps a's rows shared.
		"knowledge decoded": func(t *testing.T, req *SyncRequest) *SyncRequest {
			fwd := *req
			if req.Knowledge != nil {
				k, _ := req.Knowledge.MarshalBinary()
				fwd.Knowledge = vclock.NewKnowledge()
				if err := fwd.Knowledge.UnmarshalBinary(k); err != nil {
					t.Fatal(err)
				}
			}
			return &fwd
		},
	}
	for pname, policy := range policies {
		for fname, forward := range forwards {
			t.Run(pname+"/"+fname, func(t *testing.T) {
				var clock int64
				now := func() int64 { return clock }
				node := func(id vclock.ReplicaID) *Replica {
					return New(Config{
						ID: id, OwnAddresses: []string{"addr:" + string(id)}, Now: now, SyncSummaries: true,
						Policy: policy(id, now),
					})
				}
				a, b, c := node("a"), node("b"), node("c")
				encode := func(rt routing.Request, know *vclock.Knowledge) string {
					k, err := know.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					return string(append(rt.(interface{ AppendBinary([]byte) []byte }).AppendBinary(nil), k...))
				}
				for round := 0; round < 3; round++ {
					clock++
					send(a, "addr:a", "addr:c") // a write just before the request
					var sent string
					if _, err := a.Pull(b.ID(), Budget{}, false, func(req *SyncRequest) (*SyncResponse, error) {
						sent = encode(req.Routing, a.know) // not a.Knowledge(): a clone kept would pin a's rows
						return b.HandleSyncRequest(forward(t, req)), nil
					}); err != nil {
						t.Fatal(err)
					}
					clock++
					send(a, "addr:a", "addr:c")
					Encounter(a, c, 0) // a's state and knowledge change, and it requests again
					for side, kept := range map[string]string{
						"target's frontier": encode(a.frontiers["b"].routing, a.frontiers["b"].know),
						"source's baseline": encode(b.peerKnow["a"].routing, b.peerKnow["a"].know),
					} {
						if kept != sent {
							t.Errorf("round %d: the %s is not what the request sent", round, side)
						}
					}
				}
			})
		}
	}
}

// TestSourceRestartForcesDeltaResync crash-restarts the source via
// snapshot/restore: its cached delta baseline is gone, so the target's next
// delta frame must be refused and resolved by one exact-knowledge fallback
// round — after which the pair resumes delta mode.
func TestSourceRestartForcesDeltaResync(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: true})
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, SyncSummaries: true})
	send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	send(a, "addr:a", "addr:b")
	if r := Sync(a, b, 0); r.Fallback || r.Apply.Delivered != 1 {
		t.Fatalf("pre-crash delta sync: %+v", r)
	}

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: true})
	if err := a2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	send(a2, "addr:a", "addr:b")
	r := Sync(a2, b, 0)
	if !r.Fallback {
		t.Error("restarted source accepted a delta against a baseline it no longer holds")
	}
	if r.Apply.Delivered != 1 || r.Apply.Duplicates != 0 {
		t.Errorf("post-crash sync delivered wrong batch: %+v", r.Apply)
	}
	if got := b.Stats().SummaryFallbacks; got != 1 {
		t.Errorf("%d fallbacks, want exactly 1", got)
	}
	// The fallback's tagged full frame re-established the frontier: the pair
	// is back on deltas.
	send(a2, "addr:a", "addr:b")
	deltas := b.Stats().KnowledgeDeltas
	if r := Sync(a2, b, 0); r.Fallback || r.Apply.Delivered != 1 {
		t.Fatalf("post-recovery delta sync: %+v", r)
	}
	if got := b.Stats().KnowledgeDeltas; got != deltas+1 {
		t.Errorf("pair did not resume delta mode after fallback: %d deltas, want %d", got, deltas+1)
	}
}

// TestTargetRestartBumpsEpoch crash-restarts the target: the restore bumps
// its epoch and clears its frontiers, so it re-establishes the pair with a
// freshly tagged full frame — no stale delta is ever sent, and no fallback
// round is needed.
func TestTargetRestartBumpsEpoch(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: true})
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, SyncSummaries: true})
	send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	send(a, "addr:a", "addr:b")
	Sync(a, b, 0)
	if got := b.Epoch(); got != 1 {
		t.Fatalf("fresh replica epoch %d, want 1", got)
	}

	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b2 := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, SyncSummaries: true})
	if err := b2.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := b2.Epoch(); got != 2 {
		t.Errorf("restored epoch %d, want 2", got)
	}
	fulls := b2.Stats().KnowledgeFulls
	send(a, "addr:a", "addr:b")
	r := Sync(a, b2, 0)
	if r.Fallback {
		t.Error("restarted target needed a fallback — it should have sent a tagged full frame directly")
	}
	if r.Apply.Delivered != 1 || r.Apply.Duplicates != 0 {
		t.Errorf("post-restart sync: %+v", r.Apply)
	}
	if got := b2.Stats().KnowledgeFulls; got != fulls+1 {
		t.Errorf("restarted target sent %d full frames, want %d", got, fulls+1)
	}
	// And the new-epoch baseline supports deltas again.
	send(a, "addr:a", "addr:b")
	if r := Sync(a, b2, 0); r.Fallback || r.Apply.Delivered != 1 {
		t.Fatalf("new-epoch delta sync: %+v", r)
	}
	if got := b2.Stats().KnowledgeDeltas; got != 1 {
		t.Errorf("new incarnation sent %d deltas, want 1", got)
	}
}

// TestSummaryPeerCapBoundsState sprays fresh self-declared peer identities
// at both sides of the summary state. Without the cap every identity pins a
// knowledge clone (a baseline on the source side, a frontier on the target
// side), handing a hostile dialer unbounded server memory; with it the maps
// stay at the cap with least-recently-used pairs evicted, and an
// evicted pair degrades to a NeedKnowledge fallback round, never to wrong
// knowledge.
func TestSummaryPeerCapBoundsState(t *testing.T) {
	const limit = 4

	// Source side: tagged full frames under ever-fresh TargetIDs.
	src := New(Config{ID: "src", OwnAddresses: []string{"addr:src"}})
	src.peerCap = limit
	know := vclock.NewKnowledge()
	know.Add(vclock.Version{Replica: "x", Seq: 1})
	for i := 0; i < 10*limit; i++ {
		src.HandleSyncRequest(&SyncRequest{
			TargetID:  vclock.ReplicaID(fmt.Sprintf("t%d", i)),
			Knowledge: know.Clone(),
			Epoch:     1, Gen: 1,
		})
	}
	if n := len(src.peerKnow); n > limit {
		t.Errorf("peerKnow holds %d baselines after identity spray, cap %d", n, limit)
	}
	// The most recent identities survive (LRU), the oldest are gone.
	if src.peerKnow[vclock.ReplicaID(fmt.Sprintf("t%d", 10*limit-1))] == nil {
		t.Error("most recent baseline was evicted")
	}
	// A delta from an evicted pair is refused, not served from stale state.
	resp := src.HandleSyncRequest(&SyncRequest{
		TargetID: "t0",
		Delta:    vclock.NewDelta(1, 2, nil),
	})
	if !resp.NeedKnowledge {
		t.Error("delta against an evicted baseline must demand a fallback round")
	}

	// Target side: initiating against ever-fresh peers.
	tgt := New(Config{ID: "tgt", OwnAddresses: []string{"addr:tgt"}, SyncSummaries: true})
	tgt.peerCap = limit
	for i := 0; i < 10*limit; i++ {
		tgt.MakeSummaryRequest(vclock.ReplicaID(fmt.Sprintf("p%d", i)), 0)
	}
	if n := len(tgt.frontiers); n > limit {
		t.Errorf("frontiers holds %d entries after peer spray, cap %d", n, limit)
	}
	// An evicted frontier just re-establishes with a tagged full frame.
	fulls := tgt.Stats().KnowledgeFulls
	if req := tgt.MakeSummaryRequest("p0", 0); req.Knowledge == nil || req.Epoch == 0 {
		t.Error("evicted pair must restart with a tagged full frame")
	}
	if got := tgt.Stats().KnowledgeFulls; got != fulls+1 {
		t.Errorf("re-establishing frame counted %d fulls, want %d", got, fulls+1)
	}
}

// TestEvictedFrontierNeverReusesGenerations: a frontier evicted at
// the summary peer cap used to restart its generations at 1, so when the frame that
// re-established it was lost, the next delta (gen 2) matched the baseline the
// peer still held from the evicted frontier's first frame (gen 1) — and was
// merged onto knowledge older than the one it was diffed against. Here that
// stale knowledge lacks a version the peer stores, which came back as a
// duplicate. Generations now restart above every one the epoch has used, so
// the peer refuses the delta and the pair pays one fallback round instead.
func TestEvictedFrontierNeverReusesGenerations(t *testing.T) {
	a := New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, SyncSummaries: true})
	a.peerCap = 1
	b := New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: epidemic.New(10)})
	c := New(Config{ID: "c", OwnAddresses: []string{"addr:c"}})

	Sync(b, a, 0)                // b caches a's first frame: (epoch 1, gen 1)
	send(a, "addr:a", "addr:b")  // a learns a version ...
	Sync(a, b, 0)                // ... which b comes to store
	Sync(c, a, 0)                // a's frontier for b is evicted
	a.MakeSummaryRequest("b", 0) // re-established, but the frame is lost
	res := Sync(b, a, 0)
	if !res.Fallback {
		t.Error("a delta diffed against a frontier the source never saw was served")
	}
	if res.Apply.Duplicates != 0 || a.Stats().Duplicates != 0 {
		t.Errorf("the source re-sent %d known versions", res.Apply.Duplicates)
	}
}
