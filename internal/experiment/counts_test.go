package experiment

import (
	"io"
	"slices"
	"testing"

	"replidtn/internal/emu"
	"replidtn/internal/item"
	"replidtn/internal/metrics"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// TestServeCounts pins what the figures' serve walks cost, as exact counts
// read through Settings.Obs on the small trace dtnsim -small runs: the store
// entries the walks examined, the candidates they offered, the items sent,
// and the bytes of the knowledge frames the requests carried. The emulator
// is deterministic, so the counts repeat bit for bit, and a change to the
// serve path states which one it moves and by how much. The
// sent counts are the figures' own — a change that moves them moves a table.
// The offered counts are the candidates the walks reached: a budgeted serve
// that stops once its batch is decided moves them without moving a table.
// Each figure's counts sum over all of its runs; Fig. 5 and Fig. 6 are one
// sweep. "all" runs each of the four sweeps once, so its counts are their
// sums. The knowledge bytes move only with the knowledge layout.
func TestServeCounts(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	params := emu.DefaultParams()
	policySweep := func(maxPerContact, relayCapacity int) func(Settings) error {
		return func(s Settings) error {
			_, err := RunPolicySweep(tr, params, maxPerContact, relayCapacity, s)
			return err
		}
	}
	for _, fig := range []struct {
		name                           string
		run                            func(Settings) error
		syncs, examined, offered, sent int
		knowBytes                      int64
	}{
		{"fig5/6", func(s Settings) error {
			_, err := RunFilterSweep(tr, nil, s)
			return err
		}, 24728, 135456, 3071, 3071, 741239},
		{"fig7a", policySweep(0, 0), 11240, 41843, 2387, 2387, 316915},
		{"fig9", policySweep(1, 0), 10380, 22301, 9260, 1787, 268051},
		{"fig10", policySweep(0, 2), 11240, 20924, 1718, 1718, 323814},
		{"all", func(s Settings) error { return Run(io.Discard, "all", tr, s) }, 57588, 220524, 16436, 8963, 1650019},
	} {
		got := &replica.Stats{}
		if err := fig.run(Settings{Obs: got}); err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		if got.SyncsServed != fig.syncs || got.EntriesExamined != fig.examined ||
			got.CandidatesOffered != fig.offered || got.ItemsSent != fig.sent || got.KnowledgeFullBytes != fig.knowBytes {
			t.Errorf("%s: %d syncs examined %d entries, offered %d and sent %d, carrying %d knowledge bytes; want %d, %d, %d, %d and %d",
				fig.name, got.SyncsServed, got.EntriesExamined, got.CandidatesOffered, got.ItemsSent, got.KnowledgeFullBytes,
				fig.syncs, fig.examined, fig.offered, fig.sent, fig.knowBytes)
		}
	}
}

// TestBoundedDecisionCounts pins how many forwarding decisions Fig. 9's
// MaxProp run asks for on the small trace. A wrapper counts ToSend calls and
// forwards routing.Planner, so a budgeted serve prices no candidate the full
// batch would turn away at its hop-class bound; a second run goes through a
// wrapper that hides the plan, so every candidate is priced. The two runs must
// move the same items and deliver the same messages at the same times.
func TestBoundedDecisionCounts(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	params := emu.DefaultParams()
	run := func(bounded bool) (int, *emu.Result) {
		calls := 0
		res, err := emu.Run(emu.Config{
			Trace:                   tr,
			MaxMessagesPerEncounter: 1,
			Policy: func(node vclock.ReplicaID, now func() int64, own []string) routing.Policy {
				p := maxprop.New(node, params.MaxPropHopThreshold, now, own...)
				if bounded {
					return boundedPolicy{countingPolicy{p, &calls}, p}
				}
				return countingPolicy{p, &calls}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls, res
	}
	with, got := run(true)
	without, want := run(false)
	if with != 1087 || without != 6590 {
		t.Errorf("ToSend called %d times with the bound and %d without; want 1087 and 6590", with, without)
	}
	bounds := metrics.HourBounds(12)
	if got.ItemsTransferred != want.ItemsTransferred || !slices.Equal(got.Summary.CDF(bounds), want.Summary.CDF(bounds)) {
		t.Errorf("the bound moved the run: %d items, CDF %v; without it %d items, CDF %v",
			got.ItemsTransferred, got.Summary.CDF(bounds), want.ItemsTransferred, want.Summary.CDF(bounds))
	}
}

// TestDestinationDecisionCounts pins how many forwarding decisions Fig. 9's
// PROPHET run asks for on the small trace. A wrapper counts ToSend calls and
// forwards routing.Planner, so once a budget is smaller than a store
// its serves walk the destinations PROPHET forwards to, at their prices, and
// ask ToSend about no entry filed under one; a second run goes through a
// wrapper that hides the plan, so every candidate is priced. The two
// runs must move the same items and deliver the same messages at the same
// times.
func TestDestinationDecisionCounts(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	params := emu.DefaultParams()
	run := func(byDest bool) (int, *emu.Result) {
		calls := 0
		res, err := emu.Run(emu.Config{
			Trace:                   tr,
			MaxMessagesPerEncounter: 1,
			Policy: func(_ vclock.ReplicaID, now func() int64, own []string) routing.Policy {
				p := prophet.New(params.Prophet, now, own...)
				if byDest {
					return pricedPolicy{countingPolicy{p, &calls}, p}
				}
				return countingPolicy{p, &calls}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls, res
	}
	with, got := run(true)
	without, want := run(false)
	if with != 2 || without != 12583 {
		t.Errorf("ToSend called %d times with the destinations priced and %d without; want 2 and 12583", with, without)
	}
	bounds := metrics.HourBounds(12)
	if got.ItemsTransferred != want.ItemsTransferred || !slices.Equal(got.Summary.CDF(bounds), want.Summary.CDF(bounds)) {
		t.Errorf("pricing destinations moved the run: %d items, CDF %v; without it %d items, CDF %v",
			got.ItemsTransferred, got.Summary.CDF(bounds), want.ItemsTransferred, want.Summary.CDF(bounds))
	}
}

type pricedPolicy struct {
	countingPolicy
	routing.Planner
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
