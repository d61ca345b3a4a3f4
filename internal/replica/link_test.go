package replica

import (
	"fmt"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing/epidemic"
)

func newLinkedPair(t *testing.T) (a, b *Replica) {
	t.Helper()
	a = New(Config{ID: "a", OwnAddresses: []string{"addr:a"}, Policy: epidemic.New(10)})
	b = New(Config{ID: "b", OwnAddresses: []string{"addr:b"}, Policy: epidemic.New(10)})
	return a, b
}

func seedMessages(r *Replica, from string, n int) []*item.Item {
	items := make([]*item.Item, n)
	for i := range items {
		items[i] = r.CreateItem(item.Metadata{
			Source:       from,
			Destinations: []string{"addr:b"},
			Kind:         "message",
		}, []byte(fmt.Sprintf("msg-%d", i)))
	}
	return items
}

// pullBudget is one in-process sync under a full budget over a reliable
// link.
func pullBudget(source, target *Replica, budget Budget) SyncResult {
	res, _ := target.Pull(source.ID(), budget, false, (&Link{Cutoff: -1}).carry(source))
	return res
}

// TestEncounterLinkUncutMatchesReliable proves a link that outlasts the
// encounter is the exact fault-free path: same results, same stats, no abort
// accounting.
func TestEncounterLinkUncutMatchesReliable(t *testing.T) {
	a1, b1 := newLinkedPair(t)
	a2, b2 := newLinkedPair(t)
	seedMessages(a1, "addr:a", 5)
	seedMessages(a2, "addr:a", 5)

	ref := EncounterLink(a1, b1, Budget{Items: 3}, Link{Cutoff: -1})
	got := EncounterLink(a2, b2, Budget{Items: 3}, Link{Cutoff: 3})
	if ref != got {
		t.Errorf("uncut link diverged from the reliable one:\nref %+v\ngot %+v", ref, got)
	}
	if b2.Stats() != b1.Stats() || a2.Stats() != a1.Stats() {
		t.Errorf("uncut link changed stats:\nref %+v %+v\ngot %+v %+v", a1.Stats(), b1.Stats(), a2.Stats(), b2.Stats())
	}
	if b2.Stats().SyncsAborted != 0 || a2.Stats().SyncsAborted != 0 {
		t.Error("uncut link recorded aborts")
	}
}

// TestCutoffAbortsTransactionally is the core transactional-sync guarantee:
// an interrupted transfer leaves the target's knowledge and store bit-
// identical to before the sync, and the wasted partial transfer is reported.
func TestCutoffAbortsTransactionally(t *testing.T) {
	a, b := newLinkedPair(t)
	seedMessages(a, "addr:a", 5)
	knowBefore := b.Knowledge()
	totalBefore, _, _ := b.StoreLen()

	res := EncounterLink(a, b, Budget{}, Link{Cutoff: 2})
	if !res.AtoB.Aborted {
		t.Fatalf("expected aborted first leg, got %+v", res.AtoB)
	}
	if res.AtoB.Sent != 2 {
		t.Errorf("wasted transfer = %d items, want 2 (the cut point)", res.AtoB.Sent)
	}
	if res.AtoB.Apply != (ApplyStats{}) {
		t.Errorf("aborted sync applied something: %+v", res.AtoB.Apply)
	}
	if res.BtoA != (SyncResult{}) {
		t.Errorf("second leg ran over a dead link: %+v", res.BtoA)
	}
	if !b.Knowledge().Equal(knowBefore) {
		t.Errorf("abort perturbed knowledge: %s -> %s", knowBefore, b.Knowledge())
	}
	if total, _, _ := b.StoreLen(); total != totalBefore {
		t.Errorf("abort perturbed store: %d -> %d entries", totalBefore, total)
	}
	if b.Stats().SyncsAborted != 1 {
		t.Errorf("SyncsAborted = %d, want 1", b.Stats().SyncsAborted)
	}
	if b.Stats().Duplicates != 0 {
		t.Error("abort produced duplicates")
	}
}

// TestResumeAfterAbortDeliversExactlyOnce: because the abort left knowledge
// untouched, the next (reliable) encounter re-offers the full batch and every
// message arrives exactly once — nothing lost, nothing duplicated.
func TestResumeAfterAbortDeliversExactlyOnce(t *testing.T) {
	a, b := newLinkedPair(t)
	var delivered int
	b2 := New(Config{
		ID: "b", OwnAddresses: []string{"addr:b"}, Policy: epidemic.New(10),
		OnDeliver: func(*item.Item) { delivered++ },
	})
	_ = b
	msgs := seedMessages(a, "addr:a", 5)

	// Two disrupted encounters in a row, then a clean one.
	for _, cutoff := range []int{1, 3} {
		res := EncounterLink(a, b2, Budget{}, Link{Cutoff: cutoff})
		if !res.AtoB.Aborted {
			t.Fatalf("cutoff %d: expected abort, got %+v", cutoff, res.AtoB)
		}
	}
	if delivered != 0 {
		t.Fatalf("aborted syncs delivered %d messages", delivered)
	}
	res := EncounterLink(a, b2, Budget{}, Link{Cutoff: -1})
	if res.AtoB.Aborted || res.AtoB.Sent != len(msgs) {
		t.Fatalf("clean encounter after aborts: %+v", res.AtoB)
	}
	if delivered != len(msgs) {
		t.Errorf("delivered %d messages, want %d", delivered, len(msgs))
	}
	if b2.Stats().Duplicates != 0 {
		t.Errorf("at-most-once violated: %d duplicates", b2.Stats().Duplicates)
	}
	// A further encounter moves nothing: everything is known.
	res = EncounterLink(a, b2, Budget{}, Link{Cutoff: -1})
	if res.AtoB.Sent != 0 || b2.Stats().Duplicates != 0 {
		t.Errorf("steady state perturbed: %+v, %d duplicates", res.AtoB, b2.Stats().Duplicates)
	}
}

// TestCutoffBudgetSharedAcrossLegs: the link's item allowance spans both
// synchronization legs, so a first leg consuming part of it leaves the
// remainder to the second.
func TestCutoffBudgetSharedAcrossLegs(t *testing.T) {
	a, b := newLinkedPair(t)
	seedMessages(a, "addr:a", 2) // leg 1: b pulls 2 from a
	bMsgs := make([]*item.Item, 4)
	for i := range bMsgs {
		bMsgs[i] = b.CreateItem(item.Metadata{
			Source: "addr:b", Destinations: []string{"addr:a"}, Kind: "message",
		}, []byte(fmt.Sprintf("rev-%d", i)))
	}

	// Allowance 5: leg 1 moves 2 cleanly, leg 2's 4-item batch exceeds the
	// remaining 3 and aborts after 3 crossed items.
	res := EncounterLink(a, b, Budget{}, Link{Cutoff: 5})
	if res.AtoB.Aborted || res.AtoB.Sent != 2 {
		t.Fatalf("first leg: %+v", res.AtoB)
	}
	if !res.BtoA.Aborted || res.BtoA.Sent != 3 {
		t.Fatalf("second leg: %+v, want abort after 3 crossed", res.BtoA)
	}
	if a.Stats().SyncsAborted != 1 {
		t.Errorf("a.SyncsAborted = %d, want 1", a.Stats().SyncsAborted)
	}
	// a (the second leg's target) kept none of b's items.
	for _, m := range bMsgs {
		if a.HasItem(m.ID) {
			t.Errorf("aborted leg leaked item %s into a", m.ID)
		}
	}
}

// TestCutoffZeroLosesEverything: a link dying immediately moves nothing and
// still leaves both sides consistent.
func TestCutoffZeroLosesEverything(t *testing.T) {
	a, b := newLinkedPair(t)
	seedMessages(a, "addr:a", 3)
	res := EncounterLink(a, b, Budget{}, Link{Cutoff: 0})
	if !res.AtoB.Aborted || res.AtoB.Sent != 0 || res.AtoB.SentBytes != 0 {
		t.Fatalf("zero-budget link: %+v", res.AtoB)
	}
	if total, _, _ := b.StoreLen(); total != 0 {
		t.Error("zero-budget link stored items at b")
	}
}

// TestCutoffRespectsEncounterBudget: the fault path still honors the paper's
// bandwidth budget — a small batch under MaxItems fits inside a generous
// cutoff and completes.
func TestCutoffRespectsEncounterBudget(t *testing.T) {
	a, b := newLinkedPair(t)
	seedMessages(a, "addr:a", 5)
	res := EncounterLink(a, b, Budget{Items: 1}, Link{Cutoff: 10})
	if res.AtoB.Aborted {
		t.Fatalf("budgeted batch within cutoff must complete: %+v", res.AtoB)
	}
	if res.AtoB.Sent != 1 {
		t.Errorf("budget violated: sent %d, want 1", res.AtoB.Sent)
	}
}
