package replica

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/spraywait"
	"replidtn/internal/routing/twohop"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/itemcodec"
)

// handleSyncRequestReference is the pre-refactor batch assembly, kept
// verbatim as the specification the streaming selector must match: snapshot
// and sort the whole store, score every candidate, sort the full batch, and
// only then truncate to the budgets. Any divergence between this and
// HandleSyncRequest on the same inputs is a bug in the streaming path.
func (r *Replica) handleSyncRequestReference(req *SyncRequest) *SyncResponse {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.policy != nil && req.Routing != nil {
		r.policy.ProcessReq(req.TargetID, req.Routing)
	}
	target := routing.Target{ID: req.TargetID, Filter: req.Filter}

	var batch []BatchItem
	for _, e := range r.store.Entries() {
		if req.Knowledge.Contains(e.Item.Version) {
			continue
		}
		if !e.Item.Deleted && r.expiredLocked(&e.Item.Meta) {
			continue
		}
		switch {
		case e.Item.Deleted:
			batch = append(batch, BatchItem{
				Item:      e.Item,
				Transient: transmitTransient(e, item.Transient{}),
				Priority:  routing.Priority{Class: routing.ClassFilter},
			})
		case req.Filter != nil && req.Filter.Match(e.Item):
			batch = append(batch, BatchItem{
				Item:      e.Item,
				Transient: transmitTransient(e, item.Transient{}),
				Priority:  routing.Priority{Class: routing.ClassFilter},
			})
		case r.policy != nil:
			pr, tr := r.policy.ToSend(e, target)
			if pr.Class == routing.ClassSkip {
				continue
			}
			batch = append(batch, BatchItem{
				Item:      e.Item,
				Transient: transmitTransient(e, tr),
				Priority:  pr,
			})
		}
	}

	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].Priority != batch[j].Priority {
			return batch[i].Priority.Before(batch[j].Priority)
		}
		return batch[i].Item.ID.Compare(batch[j].Item.ID) < 0
	})

	resp := &SyncResponse{SourceID: r.id, Items: batch}
	if req.MaxItems > 0 && len(batch) > req.MaxItems {
		resp.Items = batch[:req.MaxItems]
		resp.Truncated = true
	}
	if req.MaxBytes > 0 {
		var used int64
		cut := len(resp.Items)
		for i, bi := range resp.Items {
			size := int64(itemcodec.BatchItemSize(bi.Item, bi.Transient, int64(bi.Priority.Class)))
			if used+size > req.MaxBytes && (i > 0 || req.StrictBytes) {
				cut = i
				break
			}
			used += size
		}
		if cut < len(resp.Items) {
			resp.Items = resp.Items[:cut]
			resp.Truncated = true
		}
	}
	if !resp.Truncated && req.Filter != nil && r.filter.Covers(req.Filter) {
		resp.LearnedKnowledge = r.know.Clone()
	}
	return resp
}

// diffScenario is one randomized store + request configuration.
type diffScenario struct {
	seed        int64
	policy      int // 0 none, 1 epidemic, 2 spray, 3 prophet, 4 two-hop, 5 MaxProp
	items       int
	maxItems    int
	maxBytes    int64
	strictBytes bool
	knownFrac   int // percent of versions pre-learned by the target
	tombFrac    int // percent of items deleted
	expireFrac  int // percent of items already expired
	filter      int // index into diffFilters
	// originals keeps every item an unmodified original — no update, no
	// deletion, no seq-0 version — so the source's runs stay in ID order and
	// a budgeted serve may stop early; some items name both of the target's
	// own addresses, the second first.
	originals bool
	// wrap, when set, stands between the source and its policy.
	wrap func(routing.Policy) routing.Policy
}

// diffFilters are the target filters a scenario picks from: address sets of
// 2, 1 and 9 addresses (9 is past the set size up to which Contains compares
// one by one), then filters the destination lookup cannot serve — All, Kind,
// an Or of an address set and a Kind — and no filter at all.
var diffFilters = []func() filter.Filter{
	func() filter.Filter { return filter.NewAddresses("addr:0", "addr:1") },
	func() filter.Filter { return filter.All{} },
	func() filter.Filter { return filter.NewAddresses("addr:0") },
	func() filter.Filter {
		return filter.NewAddresses("addr:1", "addr:2", "addr:3", "addr:4", "addr:5", "addr:6", "addr:7", "addr:8", "addr:9")
	},
	func() filter.Filter { return filter.Kind{Name: "message"} },
	func() filter.Filter { return filter.NewOr(filter.NewAddresses("addr:2"), filter.Kind{Name: "note"}) },
	func() filter.Filter { return nil },
}

const (
	filterAll = 1 // diffFilters index of filter.All
	filterOr  = 5 // diffFilters index of the Or
	filterNil = 6 // diffFilters index of the missing filter
)

// buildScenario constructs, for real, the world one scenario describes — a
// source replica, the target that will sync from it, and the exact-knowledge
// request for that sync. Called twice with the same scenario it produces
// identical worlds, so policy side effects (spray halving, TTL decrements)
// apply equally to both paths under comparison.
//
// The source's store is what a relay's looks like, not a single writer's
// log: items from several creators arrive in batches while their creators
// keep updating and deleting them (so an item's Num differs from its
// version's Seq, and an ingested update must take the replaced entry's old
// version out of the source's index), the source itself rewrites items other
// replicas created (version creator != ID creator), holds tombstones and
// already-expired messages, and may hold one item whose version has seq 0,
// which knowledge can never cover. Items have one destination, two, or one
// named twice, and the copies the source receives may arrive with one spray
// allowance left or a spent hop budget: what the source's policy — or, with
// none, the basic substrate — can offer only to a target whose filter
// matches. The target's knowledge is earned the same
// way — a prefix of each writer's versions, then a random scatter — so it is
// a contiguous base plus exceptions plus gaps, and covers versions the
// source never received. A scenario of originals leaves out every update,
// deletion and the seq-0 version.
func buildScenario(sc diffScenario, summaries bool) (src, tgt *Replica, req *SyncRequest) {
	rng := rand.New(rand.NewSource(sc.seed))
	var now int64 = 1000
	clock := func() int64 { return now }
	var pol, tgtPolicy routing.Policy
	switch sc.policy {
	case 1:
		pol = epidemic.New(8)
	case 2:
		pol = spraywait.New(8)
	case 3:
		pol, tgtPolicy = learnedProphet(rng, &now)
	case 4:
		pol = twohop.New()
	case 5:
		pol = learnedMaxProp(rng, &now)
	}
	if sc.wrap != nil {
		pol = sc.wrap(pol)
	}
	src = New(Config{
		ID: "src", OwnAddresses: []string{"addr:src"}, Policy: pol, Now: clock,
		SyncSummaries: summaries,
	})
	f := diffFilters[sc.filter]()
	tgt = New(Config{
		ID: "tgt", OwnAddresses: []string{"addr:0", "addr:1"}, Filter: f, Now: clock,
		SyncSummaries: summaries,
	})

	// ingest hands dst the entries of from that pick selects, as one batch.
	// Copies bound for the source may carry a last spray allowance, the one
	// before it, or a spent hop budget.
	ingest := func(dst, from *Replica, pick func(*store.Entry) bool) {
		resp := &SyncResponse{SourceID: from.ID()}
		for _, e := range from.store.Entries() {
			if pick(e) {
				tr := e.Transient
				if dst == src && sc.policy == 5 {
					tr.Set(item.FieldHops, rng.Intn(2*maxprop.DefaultHopThreshold))
				} else if dst == src {
					switch rng.Intn(4) {
					case 0:
						tr.Set(item.FieldCopies, 1)
					case 1:
						tr.Set(item.FieldCopies, 2) // one halving from the last
					case 2:
						tr.Set(item.FieldTTL, 0)
					}
				}
				resp.Items = append(resp.Items, BatchItem{Item: e.Item, Transient: tr})
			}
		}
		dst.ApplyBatch(resp)
	}
	writers := []*Replica{src}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		writers = append(writers, New(Config{ID: vclock.ReplicaID(id), OwnAddresses: []string{"addr:" + id}, Now: clock}))
	}
	for i := 0; i < sc.items; i++ {
		w := writers[rng.Intn(len(writers))]
		held := w.store.Entries()
		switch op := rng.Intn(100); {
		case sc.originals:
			dests := []string{fmt.Sprintf("addr:%d", rng.Intn(10))}
			if rng.Intn(6) == 0 {
				dests = []string{"addr:1", "addr:0"}
			}
			w.CreateItem(item.Metadata{Source: "addr:" + string(w.ID()), Destinations: dests, Kind: "message"}, make([]byte, rng.Intn(200)))
		case len(held) > 0 && op < sc.tombFrac:
			if _, err := w.DeleteItem(held[rng.Intn(len(held))].Item.ID); err != nil {
				panic(err)
			}
		case len(held) > 0 && op < sc.tombFrac+15:
			// Any held item, the source's relayed ones included.
			if _, err := w.UpdateItem(held[rng.Intn(len(held))].Item.ID, make([]byte, rng.Intn(200))); err != nil {
				panic(err)
			}
		default:
			expires := int64(0)
			if rng.Intn(100) < sc.expireFrac {
				expires = now - 1 // already past
			}
			dests := []string{fmt.Sprintf("addr:%d", rng.Intn(10))}
			switch rng.Intn(6) {
			case 0:
				dests = append(dests, fmt.Sprintf("addr:%d", rng.Intn(10)))
			case 1:
				dests = append(dests, dests[0])
			}
			w.CreateItem(item.Metadata{
				Source:       "addr:" + string(w.ID()),
				Destinations: dests,
				Kind:         "message",
				Expires:      expires,
			}, make([]byte, rng.Intn(200)))
		}
		if rng.Intn(4) == 0 {
			ingest(src, writers[rng.Intn(len(writers))], func(*store.Entry) bool { return rng.Intn(3) > 0 })
		}
	}
	if rng.Intn(2) == 0 && !sc.originals {
		src.ApplyBatch(&SyncResponse{SourceID: "z", Items: []BatchItem{{Item: &item.Item{
			ID:      item.ID{Creator: "z", Num: 1},
			Version: vclock.Version{Replica: "z", Seq: 0},
			Meta:    item.Metadata{Source: "addr:z", Destinations: []string{fmt.Sprintf("addr:%d", rng.Intn(10))}, Kind: "message"},
		}}}})
	}
	for _, w := range writers {
		prefix := uint64(rng.Intn(int(w.seq) + 1)) // a prefix of what w wrote
		ingest(tgt, w, func(e *store.Entry) bool {
			return e.Item.Version.Seq <= prefix || rng.Intn(100) < sc.knownFrac
		})
	}
	req = &SyncRequest{
		TargetID:    "tgt",
		Knowledge:   tgt.Knowledge(),
		Filter:      f,
		MaxItems:    sc.maxItems,
		MaxBytes:    sc.maxBytes,
		StrictBytes: sc.strictBytes,
	}
	if tgtPolicy != nil {
		req.Routing = tgtPolicy.GenerateReq()
	}
	return src, tgt, req
}

// buildSource is buildScenario for the tests that drive the source directly.
func buildSource(sc diffScenario) (*Replica, *SyncRequest) {
	src, _, req := buildScenario(sc, false)
	return src, req
}

// reqClone gives each path its own request: ProcessReq and knowledge reads
// must not couple the two runs.
func reqClone(req *SyncRequest) *SyncRequest {
	c := *req
	c.Knowledge = req.Knowledge.Clone()
	return &c
}

func sameResponse(a, b *SyncResponse) error {
	if a.Truncated != b.Truncated {
		return fmt.Errorf("Truncated %v vs %v", a.Truncated, b.Truncated)
	}
	if (a.LearnedKnowledge == nil) != (b.LearnedKnowledge == nil) {
		return fmt.Errorf("LearnedKnowledge presence %v vs %v",
			a.LearnedKnowledge != nil, b.LearnedKnowledge != nil)
	}
	if a.LearnedKnowledge != nil && !a.LearnedKnowledge.Equal(b.LearnedKnowledge) {
		return fmt.Errorf("LearnedKnowledge %s vs %s", a.LearnedKnowledge, b.LearnedKnowledge)
	}
	if len(a.Items) != len(b.Items) {
		return fmt.Errorf("batch length %d vs %d", len(a.Items), len(b.Items))
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Item.ID != y.Item.ID {
			return fmt.Errorf("item %d: ID %s vs %s", i, x.Item.ID, y.Item.ID)
		}
		if x.Item.Version != y.Item.Version {
			return fmt.Errorf("item %d: version %s vs %s", i, x.Item.Version, y.Item.Version)
		}
		if x.Priority != y.Priority {
			return fmt.Errorf("item %d: priority %+v vs %+v", i, x.Priority, y.Priority)
		}
		if x.Transient != y.Transient {
			return fmt.Errorf("item %d: transient %v vs %v", i, x.Transient.Map(), y.Transient.Map())
		}
	}
	return nil
}

// sameStores compares two replicas' stores entry for entry: same items at the
// same versions with the same transients, i.e. the same policy side effects.
func sameStores(a, b *Replica) error {
	x, y := a.store.Entries(), b.store.Entries()
	if len(x) != len(y) {
		return fmt.Errorf("store length %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i].Item.ID != y[i].Item.ID || x[i].Item.Version != y[i].Item.Version ||
			x[i].Transient != y[i].Transient {
			return fmt.Errorf("store entry %d: %s@%s %v vs %s@%s %v", i,
				x[i].Item.ID, x[i].Item.Version, x[i].Transient.Map(), y[i].Item.ID, y[i].Item.Version, y[i].Transient.Map())
		}
	}
	return nil
}

// destFiled counts the entries r's store files under their destinations.
func destFiled(r *Replica) int {
	n := 0
	r.store.RangeAboveDestinations(func(vclock.ReplicaID, bool) uint64 { return 0 }, func(*store.Entry) bool {
		n++
		return true
	})
	return n
}

// serveTwice runs one scenario through the reference assembly and
// HandleSyncRequest, each on its own identical source, twice over — the
// second serve walks what the first refiled — and demands identical
// batches and identical stores after each. It returns the streaming path's
// source, whose Stats count both serves, and its two responses.
func serveTwice(sc diffScenario) (src *Replica, resps [2]*SyncResponse, err error) {
	// Two identical sources: side-effecting policies (spray) mutate stored
	// transients during assembly, so each path gets its own.
	oldSrc, oldReq := buildSource(sc)
	newSrc, newReq := buildSource(sc)
	for round := range resps {
		oldResp := oldSrc.handleSyncRequestReference(reqClone(oldReq))
		resps[round] = newSrc.HandleSyncRequest(reqClone(newReq))
		if err := sameResponse(oldResp, resps[round]); err != nil {
			return nil, resps, fmt.Errorf("serve %d: %v", round+1, err)
		}
		// The side effects must also agree: stores identical after assembly.
		if err := sameStores(oldSrc, newSrc); err != nil {
			return nil, resps, fmt.Errorf("serve %d: %v", round+1, err)
		}
	}
	return newSrc, resps, nil
}

// TestHandleSyncRequestDifferential is the property test pinning the
// streaming selector over the pruned version-index walk and the destination
// runs to the old scan-and-sort-everything path: across random stores,
// policies, filters, knowledge shapes and MaxItems/MaxBytes combinations,
// both paths must emit byte-identical batches (same items, same order, same
// priorities, same truncation and knowledge-merge flags) and leave identical
// stores behind, on a first serve and on a second one over the entries the
// first refiled under their destinations.
func TestHandleSyncRequestDifferential(t *testing.T) {
	var batches, multiCreator, aboveBase, byDest, refiled, unindexed int
	check := func(seed int64, policy, items, maxItems uint8, maxBytes uint16, strict bool, filterKind, knownFrac, tombFrac, expireFrac uint8) bool {
		sc := diffScenario{
			seed:        seed,
			policy:      int(policy % 5),
			items:       int(items%120) + 1,
			maxItems:    int(maxItems % 12), // 0 = unlimited, often tiny
			maxBytes:    int64(maxBytes % 2048),
			strictBytes: strict,
			knownFrac:   int(knownFrac % 101),
			tombFrac:    int(tombFrac % 40),
			expireFrac:  int(expireFrac % 30),
			filter:      int(filterKind) % len(diffFilters),
		}
		// An untouched third copy of the source, for what the serves refiled.
		before, req := buildSource(sc)
		newSrc, resps, err := serveTwice(sc)
		if err != nil {
			t.Logf("scenario %+v: %v", sc, err)
			return false
		}
		// What the corpus exercised, for the vacuity checks below.
		if len(resps[0].Items)+len(resps[1].Items) > 0 {
			batches++
		}
		creators := make(map[vclock.ReplicaID]bool)
		for _, e := range newSrc.store.Entries() {
			creators[e.Item.Version.Replica] = true
		}
		if len(creators) > 2 {
			multiCreator++
		}
		if req.Knowledge.ExceptionCount() > 0 && req.Knowledge.Size() > req.Knowledge.ExceptionCount() {
			aboveBase++
		}
		if n := destFiled(before); n > 0 {
			byDest++
			if _, lookup := req.Filter.(*filter.Addresses); !lookup {
				unindexed++
			}
			if destFiled(newSrc) > n {
				refiled++
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("non-empty batches %d, stores of 3+ version creators %d, knowledge with base and exceptions %d, "+
		"entries filed by destination %d (under filters the lookup cannot serve %d), refiled by a serve %d",
		batches, multiCreator, aboveBase, byDest, unindexed, refiled)
	for name, n := range map[string]int{
		"non-empty batches": batches, "multi-creator stores": multiCreator,
		"knowledge with base and exceptions": aboveBase,
		"entries filed by destination":       byDest, "fallback walks": unindexed,
	} {
		if n < 20 {
			t.Errorf("corpus too thin to mean anything: %s seen %d times", name, n)
		}
	}
	// A refile needs a Spray copy at two allowances that the target neither
	// knows nor matches; TestHandleSyncRequestDifferentialEdgeBudgets pins
	// worlds full of them.
	if refiled < 5 {
		t.Errorf("corpus too thin to mean anything: refiles by a serve seen %d times", refiled)
	}
}

// TestHandleSyncRequestDifferentialEdgeBudgets hits the budget boundaries
// quick.Check may miss: MaxItems=1 (the paper's Fig. 9 constraint), a byte
// budget below one item, and both budgets binding at once.
func TestHandleSyncRequestDifferentialEdgeBudgets(t *testing.T) {
	cases := []diffScenario{
		{seed: 1, policy: 1, items: 50, maxItems: 1},
		{seed: 2, policy: 1, items: 50, maxBytes: 1},
		{seed: 3, policy: 1, items: 50, maxBytes: 1, strictBytes: true},
		{seed: 4, policy: 2, items: 80, maxItems: 1, maxBytes: 64},
		{seed: 5, policy: 3, items: 80, maxItems: 3, maxBytes: 200, tombFrac: 20},
		{seed: 6, policy: 0, items: 40, maxItems: 1, filter: filterAll},
		{seed: 7, policy: 1, items: 60, maxBytes: 63, strictBytes: true},
		{seed: 8, policy: 2, items: 100, maxItems: 100},
		{seed: 9, policy: 1, items: 30, maxItems: 30, filter: filterAll, knownFrac: 50},
		{seed: 10, policy: 1, items: 1, maxItems: 1, maxBytes: 64},
		{seed: 11, policy: 4, items: 60, maxItems: 2, filter: filterNil},
		// Spray worlds whose first serve leaves copies at their last
		// allowance, refiled before the second serve.
		{seed: 12, policy: 2, items: 100, filter: filterNil},
		{seed: 13, policy: 2, items: 100, maxItems: 1, filter: filterOr},
	}
	for _, sc := range cases {
		before, _ := buildSource(sc)
		src, _, err := serveTwice(sc)
		if err != nil {
			t.Errorf("scenario %+v: %v", sc, err)
		}
		if sc.seed >= 12 && err == nil && destFiled(src) <= destFiled(before) {
			t.Errorf("scenario %+v: the serves refiled nothing (%d entries filed by destination before, %d after)",
				sc, destFiled(before), destFiled(src))
		}
	}
}

// TestHandleSyncRequestDifferentialExactBytes serves byte budgets at the
// exact cumulative encoded sizes of the reference batch's first k items, and
// one byte either side, with StrictBytes on and off, under every policy:
// k items' bytes send k items, one byte less k-1 (1 by the at-least-one
// exception when not strict), one byte more k. A charge that leaves out an
// item's transmit transient or its priority framing sends an item too many
// one byte below a boundary, and fails against the reference.
func TestHandleSyncRequestDifferentialExactBytes(t *testing.T) {
	cases := 0
	for seed := int64(1); seed <= 3; seed++ {
		for policy := 0; policy <= 5; policy++ {
			sc := diffScenario{seed: seed, policy: policy, items: 60, knownFrac: 20, tombFrac: 5, filter: filterNil}
			if policy == 0 {
				sc.filter = 0 // with no policy, only filter matches travel
			}
			src, req := buildSource(sc)
			ref := src.handleSyncRequestReference(req).Items
			var cum int64
			for k := 1; k <= min(len(ref), 6); k++ {
				bi := &ref[k-1]
				cum += int64(itemcodec.BatchItemSize(bi.Item, bi.Transient, int64(bi.Priority.Class)))
				for _, budget := range []int64{cum - 1, cum, cum + 1} {
					for _, strict := range []bool{false, true} {
						sc.maxBytes, sc.strictBytes = budget, strict
						_, resps, err := serveTwice(sc)
						if err != nil {
							t.Fatalf("scenario %+v (k=%d): %v", sc, k, err)
						}
						want := k
						if budget < cum {
							want = k - 1
						}
						if want == 0 && !strict {
							want = 1
						}
						if got := len(resps[0].Items); got != want {
							t.Errorf("scenario %+v: a budget of %d bytes (the first %d items take %d) sent %d items, want %d", sc, budget, k, cum, got, want)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d budgeted serves", cases)
	if cases < 150 {
		t.Errorf("corpus too thin to mean anything: %d budgeted serves", cases)
	}
}

// TestHandleSyncRequestDifferentialStops pins the early stop of a budgeted
// serve (DESIGN §4) to the reference on worlds of unmodified originals, where
// runs stay in ID order and may stop: creators filed in whatever order their
// first copies arrived, filter matches anywhere in a run, items naming both
// of the target's addresses, a target knowledge of base plus exceptions.
// Under Epidemic, two-hop and no policy, for a nil filter and address
// filters, each world is served at one below, at and one above its
// candidate count, where Truncated turns, and at one item and half the
// count, then once without a budget over the entries the budgeted serves
// filed under their destinations. A serve stopped early when it offered
// fewer candidates than the reference collected; serves must have stopped
// in at least 20 budgeted worlds, or the corpus shows nothing.
func TestHandleSyncRequestDifferentialStops(t *testing.T) {
	stopped, cases := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		for _, policy := range []int{0, 1, 4} {
			for _, f := range []int{0, 2, 3, filterNil} {
				sc := diffScenario{seed: seed, policy: policy, items: 80, knownFrac: 20, expireFrac: 5, filter: f, originals: true}
				src, req := buildSource(sc)
				all := *req
				all.MaxItems = 0
				cands := len(src.handleSyncRequestReference(&all).Items)
				for _, budget := range []int{1, cands / 2, cands - 1, cands, cands + 1} {
					if budget < 1 {
						continue
					}
					sc.maxItems = budget
					newSrc, _, err := serveTwice(sc)
					if err == nil {
						err = sameResponse(src.handleSyncRequestReference(reqClone(&all)), newSrc.HandleSyncRequest(reqClone(&all)))
					}
					if err != nil {
						t.Fatalf("scenario %+v (%d candidates): %v", sc, cands, err)
					}
					cases++
					if offered := newSrc.Stats().CandidatesOffered; offered < 3*cands {
						stopped++
					}
				}
			}
		}
	}
	t.Logf("serves stopped early in %d of %d budgeted worlds", stopped, cases)
	if stopped < 20 {
		t.Errorf("corpus too thin to mean anything: serves stopped early in %d worlds", stopped)
	}
}

// learnedMaxProp returns the MaxProp policy of replica "src" after random
// encounters among it and six peers, the peer k homing addr:k: its table
// holds learned rows and its homes learned addresses, so a path to addr:0–5
// has a cost and one to addr:6–9, unknown, is +Inf.
func learnedMaxProp(rng *rand.Rand, now *int64) *maxprop.Policy {
	clock := func() int64 { return *now }
	ids := []vclock.ReplicaID{"src"}
	ps := []*maxprop.Policy{maxprop.New("src", maxprop.DefaultHopThreshold, clock, "addr:src")}
	for k := 0; k < 6; k++ {
		ids = append(ids, vclock.ReplicaID(fmt.Sprintf("p%d", k)))
		ps = append(ps, maxprop.New(ids[k+1], maxprop.DefaultHopThreshold, clock, fmt.Sprintf("addr:%d", k)))
	}
	for n := 0; n < 60; n++ {
		a, b := rng.Intn(len(ps)), rng.Intn(len(ps))
		if a != b {
			*now += 10
			ps[b].ProcessReq(ids[a], ps[a].GenerateReq())
			ps[a].ProcessReq(ids[b], ps[b].GenerateReq())
		}
	}
	return ps[0]
}

// learnedProphet returns the PROPHET policies of replicas "src" and "tgt",
// whose addresses are addr:0 and addr:1, after random encounters among them
// and six peers, the peer k homing addr:k for k = 2–7, all under one random
// strategy: the target predicts some destinations better than the source
// does, so a serve forwards to some of addr:2–7 and never to addr:8 or 9.
func learnedProphet(rng *rand.Rand, now *int64) (src, tgt *prophet.Policy) {
	params := prophet.DefaultParams()
	params.Strategy = prophet.Strategy(rng.Intn(3))
	clock := func() int64 { return *now }
	ids := []vclock.ReplicaID{"src", "tgt"}
	ps := []*prophet.Policy{prophet.New(params, clock, "addr:src"), prophet.New(params, clock, "addr:0", "addr:1")}
	for k := 2; k < 8; k++ {
		ids = append(ids, vclock.ReplicaID(fmt.Sprintf("p%d", k)))
		ps = append(ps, prophet.New(params, clock, fmt.Sprintf("addr:%d", k)))
	}
	for n := 0; n < 60; n++ {
		a, b := rng.Intn(len(ps)), rng.Intn(len(ps))
		if a != b {
			*now += rng.Int63n(2 * params.AgingUnit)
			ps[b].ProcessReq(ids[a], ps[a].GenerateReq())
			ps[a].ProcessReq(ids[b], ps[b].GenerateReq())
		}
	}
	return ps[0], ps[1]
}

// TestHandleSyncRequestDifferentialPriced pins the priced walk
// (routing.Planner) to the reference on PROPHET sources whose routing
// state was learned in random encounters with the target: for every filter
// of diffFilters, on worlds of originals and on worlds of updates,
// tombstones and seq-0 versions, each world is served twice without a
// budget and at one item, two, half, one below, at and one above its
// candidate count. The corpus must forward PROPHET items in at least 200
// serves, break a walk before a priced destination the full batch turns
// away in at least 20 (worked out from the reference's candidates, the
// destinations PROPHET lists and the walk's rule), and send an entry with
// two or more priced destinations at least 20 times.
func TestHandleSyncRequestDifferentialPriced(t *testing.T) {
	forwarded, broke, multi, cases := 0, 0, 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		for f := range diffFilters {
			for _, originals := range []bool{false, true} {
				sc := diffScenario{seed: seed, policy: 3, items: 80, knownFrac: 20, expireFrac: 5, tombFrac: 5, filter: f, originals: originals}
				src, req := buildSource(sc)
				all := *req
				all.MaxItems = 0
				ref := src.handleSyncRequestReference(&all).Items
				target := routing.Target{ID: req.TargetID, Filter: req.Filter}
				priced := walkOrder(src.policy.(*prophet.Policy).Plan(nil, target), req.Filter)
				budgets := []int{0} // no budget
				for _, b := range []int{1, 2, len(ref) / 2, len(ref) - 1, len(ref), len(ref) + 1} {
					if b > 0 {
						budgets = append(budgets, b)
					}
				}
				for _, budget := range budgets {
					sc.maxItems = budget
					newSrc, resps, err := serveTwice(sc)
					if err != nil {
						t.Fatalf("seed %d, filter %d, originals %v, budget %d of %d: %v", seed, f, originals, budget, len(ref), err)
					}
					cases++
					for _, resp := range resps {
						sent := false
						for _, bi := range resp.Items {
							if bi.Priority.Class == routing.ClassFilter {
								continue
							}
							sent = true
							if newSrc.planned && pricedDests(bi.Item.Meta.Destinations, priced) > 1 {
								multi++
							}
						}
						if sent {
							forwarded++
						}
					}
					if budget > 0 && src.store.Len() > budget && breaks(ref, priced, budget) {
						broke++
					}
				}
			}
		}
	}
	t.Logf("%d scenarios: %d serves forwarded PROPHET items, %d first serves broke before a priced destination, "+
		"%d items sent with two or more priced destinations", cases, forwarded, broke, multi)
	if forwarded < 200 || broke < 20 || multi < 20 {
		t.Errorf("corpus too thin to mean anything: %d forwarding serves, %d breaks, %d multi-destination items", forwarded, broke, multi)
	}
}

// walkOrder is the order a serve for filter f walks priced destinations in:
// best first, ties in address order, without an address filter's own; a
// filter other than an address set is served without them.
func walkOrder(priced []routing.Segment, f filter.Filter) []routing.Segment {
	af, lookup := f.(*filter.Addresses)
	if !lookup && f != nil {
		return nil
	}
	sort.SliceStable(priced, func(i, j int) bool { return priced[i].Priority.Before(priced[j].Priority) })
	if lookup {
		priced = slices.DeleteFunc(priced, func(p routing.Segment) bool { return af.Contains(p.To) })
	}
	return priced
}

// pricedDests counts the distinct destinations of dests that are priced.
func pricedDests(dests []string, priced []routing.Segment) int {
	n := 0
	for i, d := range dests {
		if !slices.Contains(dests[:i], d) && slices.ContainsFunc(priced, func(p routing.Segment) bool { return p.To == d }) {
			n++
		}
	}
	return n
}

// breaks reports whether a serve at budget limit breaks off its walk of
// priced before one of them, given ref, the unbudgeted batch of the same
// serve in transmission order: it does before destination i when more than
// limit candidates come first — the filter's matches, and the entries
// priced under an earlier destination — and the limit-th of them transmits
// before any entry priced at i could.
func breaks(ref []BatchItem, priced []routing.Segment, limit int) bool {
	first := func(it *item.Item) int {
		i := len(priced)
		for _, d := range it.Meta.Destinations {
			if j := slices.IndexFunc(priced, func(p routing.Segment) bool { return p.To == d }); j >= 0 && j < i {
				i = j
			}
		}
		return i
	}
	for i, p := range priced {
		var ahead []BatchItem
		for _, bi := range ref {
			if bi.Priority.Class == routing.ClassFilter && !bi.Item.Deleted || bi.Priority.Class != routing.ClassFilter && first(bi.Item) < i {
				ahead = append(ahead, bi)
			}
		}
		if len(ahead) > limit && ahead[limit-1].Priority.Before(p.Priority) {
			return true
		}
	}
	return false
}

// countToSend wraps a policy, counting its ToSend calls in *calls; with
// bounded it forwards the policy's routing.Planner too, without it hides it.
func countToSend(calls *int, bounded bool) func(routing.Policy) routing.Policy {
	return func(p routing.Policy) routing.Policy {
		c := countingPolicy{p, calls}
		if b, ok := p.(routing.Planner); ok && bounded {
			return boundedPolicy{c, b}
		}
		return c
	}
}

type countingPolicy struct {
	routing.Policy
	calls *int
}

func (c countingPolicy) ToSend(e *store.Entry, t routing.Target) (routing.Priority, item.Transient) {
	*c.calls++
	return c.Policy.ToSend(e, t)
}

type boundedPolicy struct {
	countingPolicy
	routing.Planner
}

// TestHandleSyncRequestDifferentialBound pins the bounded serve
// (routing.Segment.Bound) to the reference on MaxProp sources whose routing state
// was learned in random encounters and whose relayed copies have hop counts
// on both sides of the threshold, so candidates are priced by hop class,
// by a path and at +Inf. For address filters and no filter, each world is
// served with the bound and through a wrapper that hides it, without a
// budget and at one item, half, one below, at and one above its candidate
// count: both serves must give the reference's batch, Truncated and
// LearnedKnowledge, and offer the same number of candidates. The bound
// refused a candidate where the serve with it called ToSend less often; it
// must have in at least 20 serves, or the corpus shows nothing.
func TestHandleSyncRequestDifferentialBound(t *testing.T) {
	refused, cases := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		for _, f := range []int{0, 2, 3, filterNil} {
			sc := diffScenario{seed: seed, policy: 5, items: 80, knownFrac: 20, expireFrac: 5, tombFrac: 5, filter: f}
			src, req := buildSource(sc)
			req.MaxItems = 0
			cands := len(src.handleSyncRequestReference(req).Items)
			budgets := []int{0} // no budget
			for _, b := range []int{1, cands / 2, cands - 1, cands, cands + 1} {
				if b > 0 {
					budgets = append(budgets, b)
				}
			}
			for _, budget := range budgets {
				sc.maxItems, sc.wrap = budget, nil
				ref, refReq := buildSource(sc)
				want := ref.handleSyncRequestReference(refReq)
				var calls [2]int
				var offered [2]int
				for k, bounded := range []bool{true, false} {
					sc.wrap = countToSend(&calls[k], bounded)
					s, r := buildSource(sc)
					if err := sameResponse(want, s.HandleSyncRequest(r)); err != nil {
						t.Fatalf("seed %d, filter %d, budget %d of %d, bound %v: %v", seed, f, budget, cands, bounded, err)
					}
					offered[k] = s.Stats().CandidatesOffered
				}
				if offered[0] != offered[1] {
					t.Fatalf("seed %d, filter %d, budget %d: %d candidates offered with the bound, %d without", seed, f, budget, offered[0], offered[1])
				}
				cases++
				if calls[0] < calls[1] {
					refused++
				}
			}
		}
	}
	t.Logf("the bound refused a candidate in %d of %d serves", refused, cases)
	if refused < 20 {
		t.Errorf("corpus too thin to mean anything: the bound refused a candidate in %d serves", refused)
	}
}

// TestFirstContactServeExamines pins what a budgeted first contact walks,
// as a count: a target that knows nothing pulls a batch from an Epidemic
// store of one creator, whose entries are all unmodified originals. The serve
// walks the target's destination run, then the main run up to the first
// candidate the batch turns away, passing over the target's own entries it
// has already offered, so it examines at most the budget, those entries and
// a descent per run — not the store. (Each B-tree level costs a binary
// search in a node of at most 31 entries; 16 000 entries fill at most four
// levels of at least 16 children.) dtnbench's bulk-first-contact has the
// first shape: 64 of 16 000 messages for the target, ahead of the rest.
// The second is newBenchSource's, every fourth message for the target, at
// the paper's one-item budget: the main run is passed over whole.
func TestFirstContactServeExamines(t *testing.T) {
	const n, runs, height, fanOut = 16000, 2, 4, 32
	bulkSource := func() *Replica {
		src := New(Config{ID: "server", OwnAddresses: []string{"addr:server"}, Policy: epidemic.New(0)})
		for i := 0; i < n; i++ {
			to := fmt.Sprintf("addr:far%d", i%97)
			if i < 64 {
				to = "addr:0"
			}
			src.CreateItem(item.Metadata{Source: "addr:server", Destinations: []string{to}, Kind: "message"}, nil)
		}
		return src
	}
	for _, tc := range []struct {
		name            string
		src             *Replica
		budget, skipped int // skipped: entries the main run passes over as offered already
	}{
		{"bulk-first-contact", bulkSource(), 256, 64},
		{"bench source", newBenchSource(t, n), 1, 0},
	} {
		resp := tc.src.HandleSyncRequest(benchRequest(tc.budget))
		m := tc.src.Stats()
		if len(resp.Items) != tc.budget || !resp.Truncated {
			t.Fatalf("%s: batch of %d items (truncated: %v), want %d of a larger one", tc.name, len(resp.Items), resp.Truncated, tc.budget)
		}
		if got := resp.Items[0].Priority.Class; got != routing.ClassFilter {
			t.Fatalf("%s: the batch opens with a %v item, not one for the target", tc.name, got)
		}
		limit := tc.budget + 1 + tc.skipped + 2*runs*height*fanOut
		if examined := m.EntriesExamined; examined > limit {
			t.Errorf("%s: the serve examined %d of %d entries, want at most %d", tc.name, examined, n, limit)
		} else {
			t.Logf("%s: the serve examined %d of %d entries (bound %d), offered %d", tc.name, examined, n, limit, m.CandidatesOffered)
		}
	}
}

// TestHandleSyncRequestAllocsSublinear is the regression guard for the
// MaxItems=1 hot path: allocation count must not grow with store size (the
// old path allocated a slice element per store entry just to throw almost
// all of them away).
func TestHandleSyncRequestAllocsSublinear(t *testing.T) {
	measure := func(n int) float64 {
		src := New(Config{
			ID:           "src",
			OwnAddresses: []string{"addr:src"},
			Policy:       epidemic.New(64),
		})
		for i := 0; i < n; i++ {
			src.CreateItem(item.Metadata{
				Source:       "addr:src",
				Destinations: []string{fmt.Sprintf("addr:%d", i%4)},
				Kind:         "message",
			}, nil)
		}
		tgt := New(Config{ID: "tgt", OwnAddresses: []string{"addr:0"}, Policy: epidemic.New(64)})
		req := tgt.MakeSyncRequest(1)
		req.Knowledge = vclock.NewKnowledge()
		return testing.AllocsPerRun(20, func() {
			src.HandleSyncRequest(req)
		})
	}
	small, large := measure(500), measure(5000)
	if small == 0 {
		t.Fatalf("suspicious zero-alloc measurement")
	}
	// A 10x store must not cost anywhere near 10x the allocations; allow 2x
	// for noise.
	if large > 2*small {
		t.Errorf("allocations grew with store size: %v at 500 entries, %v at 5000", small, large)
	}
}
