package emu

import (
	"fmt"
	"strings"
	"testing"

	"replidtn/internal/trace"
)

// miniTrace generates a scaled-down paper trace for fast tests.
func miniTrace(t *testing.T) *trace.Trace {
	t.Helper()
	dn := trace.DefaultDieselNet()
	dn.Days = 5
	dn.FleetSize = 12
	dn.ActivePerDay = 8
	dn.EncountersPerDay = 150
	wl := trace.DefaultWorkload()
	wl.Users = 16
	wl.Messages = 40
	wl.InjectDays = 2
	tr, err := trace.Generate(dn, wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runPolicy(t *testing.T, tr *trace.Trace, name PolicyName, cfgMod func(*Config)) *Result {
	t.Helper()
	cfg := Config{Trace: tr, Policy: Factory(name, DefaultParams())}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIdenticalResults fails unless two runs agree on every result counter
// and on the full delivery list, delays and copy counts included.
func assertIdenticalResults(t *testing.T, want, got *Result) {
	t.Helper()
	if counters(want) != counters(got) {
		t.Errorf("counters differ: want %+v, got %+v", counters(want), counters(got))
	}
	dw, dg := want.Summary.Deliveries(), got.Summary.Deliveries()
	if len(dw) != len(dg) {
		t.Fatalf("%d deliveries, want %d", len(dg), len(dw))
	}
	for i := range dw {
		if dw[i] != dg[i] {
			t.Errorf("delivery %d differs: want %+v, got %+v", i, dw[i], dg[i])
		}
	}
}

func counters(r *Result) [13]int64 {
	return [13]int64{int64(r.Encounters), int64(r.Syncs), int64(r.ItemsTransferred),
		r.BytesTransferred, int64(r.Duplicates), int64(r.MeanKnowledgeEntries * 1000),
		int64(r.EncountersDropped), int64(r.SyncsAborted),
		int64(r.ItemsWasted), r.BytesWasted, int64(r.Crashes),
		r.KnowledgeBytes, int64(r.SummaryFallbacks)}
}

// firstLogDiff renders the first differing line of two event logs.
func firstLogDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(la), len(lb))
}

func TestRunRequiresTrace(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing trace should fail")
	}
}

func TestBasicSubstrateDeliversSomething(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyBasic, nil)
	if res.Summary.Total() != 40 {
		t.Fatalf("tracked %d messages, want 40", res.Summary.Total())
	}
	if res.Summary.DeliveredCount() == 0 {
		t.Error("basic substrate should deliver at least some messages")
	}
	if res.Duplicates != 0 {
		t.Errorf("at-most-once violated: %d duplicates", res.Duplicates)
	}
	if res.Encounters != len(tr.Encounters) {
		t.Errorf("processed %d encounters, want %d", res.Encounters, len(tr.Encounters))
	}
}

func TestEveryPolicyRunsCleanly(t *testing.T) {
	tr := miniTrace(t)
	for _, name := range AllPolicies {
		name := name
		t.Run(string(name), func(t *testing.T) {
			res := runPolicy(t, tr, name, nil)
			if res.Duplicates != 0 {
				t.Errorf("%s: %d duplicate receipts", name, res.Duplicates)
			}
			if res.Summary.DeliveredCount() == 0 {
				t.Errorf("%s: delivered nothing", name)
			}
		})
	}
}

func TestEpidemicBeatsBasic(t *testing.T) {
	tr := miniTrace(t)
	basic := runPolicy(t, tr, PolicyBasic, nil)
	epi := runPolicy(t, tr, PolicyEpidemic, nil)
	if epi.Summary.DeliveredCount() < basic.Summary.DeliveredCount() {
		t.Errorf("epidemic delivered %d < basic %d",
			epi.Summary.DeliveredCount(), basic.Summary.DeliveredCount())
	}
	if epi.Summary.DeliveredCount() > 0 && basic.Summary.DeliveredCount() > 0 &&
		epi.Summary.MeanDelayHours() > basic.Summary.MeanDelayHours() {
		t.Errorf("epidemic mean delay %.1fh worse than basic %.1fh",
			epi.Summary.MeanDelayHours(), basic.Summary.MeanDelayHours())
	}
	if epi.ItemsTransferred <= basic.ItemsTransferred {
		t.Error("epidemic should move more traffic than basic")
	}
}

func TestMultiAddressFiltersImproveDelivery(t *testing.T) {
	tr := miniTrace(t)
	basic := runPolicy(t, tr, PolicyBasic, nil)
	selected := runPolicy(t, tr, PolicyBasic, func(c *Config) {
		c.ExtraBuses = SelectedExtraBuses(tr, 4)
	})
	if selected.Summary.DeliveredCount() < basic.Summary.DeliveredCount() {
		t.Errorf("selected-4 delivered %d < basic %d",
			selected.Summary.DeliveredCount(), basic.Summary.DeliveredCount())
	}
}

func TestBandwidthConstraintReducesTraffic(t *testing.T) {
	tr := miniTrace(t)
	free := runPolicy(t, tr, PolicyEpidemic, nil)
	tight := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.MaxMessagesPerEncounter = 1
	})
	if tight.ItemsTransferred > tr.ComputeStats().TotalEncounters {
		t.Errorf("budget violated: %d items over %d encounters",
			tight.ItemsTransferred, tr.ComputeStats().TotalEncounters)
	}
	if tight.ItemsTransferred >= free.ItemsTransferred {
		t.Error("constraint should reduce transfers")
	}
	if tight.Duplicates != 0 {
		t.Error("constraint must not break at-most-once")
	}
}

func TestStorageConstraintBoundsRelayCopies(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.RelayCapacity = 2
	})
	if res.Duplicates != 0 {
		t.Error("constraint must not break at-most-once")
	}
	if res.Summary.DeliveredCount() == 0 {
		t.Error("storage-constrained run should still deliver")
	}
	// Copies at end are bounded: sender + destination + at most 2 per other
	// node is the hard ceiling; in practice far fewer.
	free := runPolicy(t, tr, PolicyEpidemic, nil)
	if res.Summary.MeanCopiesAtEnd() > free.Summary.MeanCopiesAtEnd() {
		t.Errorf("storage constraint raised copy count: %.1f > %.1f",
			res.Summary.MeanCopiesAtEnd(), free.Summary.MeanCopiesAtEnd())
	}
}

func TestSprayStoresFewerEndCopiesThanEpidemic(t *testing.T) {
	tr := miniTrace(t)
	spray := runPolicy(t, tr, PolicySpray, nil)
	epi := runPolicy(t, tr, PolicyEpidemic, nil)
	if spray.Summary.MeanCopiesAtEnd() > epi.Summary.MeanCopiesAtEnd() {
		t.Errorf("spray end copies %.1f exceed epidemic %.1f",
			spray.Summary.MeanCopiesAtEnd(), epi.Summary.MeanCopiesAtEnd())
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr := miniTrace(t)
	r1 := runPolicy(t, tr, PolicyMaxProp, nil)
	r2 := runPolicy(t, tr, PolicyMaxProp, nil)
	if r1.Summary.DeliveredCount() != r2.Summary.DeliveredCount() ||
		r1.ItemsTransferred != r2.ItemsTransferred {
		t.Error("same config must reproduce identical results")
	}
	d1, d2 := r1.Summary.Deliveries(), r2.Summary.Deliveries()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, d1[i], d2[i])
		}
	}
}

func TestCopiesAccountingSane(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyBasic, nil)
	for _, d := range res.Summary.Deliveries() {
		if d.Delivered() && d.CopiesAtDelivery < 1 {
			t.Errorf("message %s delivered with %d copies", d.MsgID, d.CopiesAtDelivery)
		}
		if d.CopiesAtEnd < 1 {
			t.Errorf("message %s vanished entirely (%d copies)", d.MsgID, d.CopiesAtEnd)
		}
	}
	// Basic substrate stores about two copies per delivered message (sender
	// and receiver); same-bus cases can make it slightly less.
	if got := res.Summary.MeanCopiesAtEnd(); got > 2.5 {
		t.Errorf("basic substrate stores %.2f copies on average, want ≈2", got)
	}
}

// TestCopiesAtDeliveryCountsWholeEncounter pins when a delivery's copy count
// is read: after both legs of the encounter, not as the message arrives. Relay
// R carries m1 from S to D; in leg R→D, D receives m1 (three live copies: S,
// R, D), and in leg D→R, R takes D's m2 into its one relay slot and evicts
// m1. m1 is delivered with the two copies left after the encounter. m3 moves
// between two users on bus Y, an immediate one-copy delivery at injection.
func TestCopiesAtDeliveryCountsWholeEncounter(t *testing.T) {
	tr := &trace.Trace{
		Days:  1,
		Buses: []string{"D", "R", "S", "Y"},
		Users: []string{"alice", "bob", "dave", "erin"},
		Encounters: []trace.Encounter{
			{Time: 100, A: "S", B: "R"},
			{Time: 200, A: "R", B: "D"},
		},
		Messages: []trace.Message{
			{ID: "m1", Time: 10, From: "alice", To: "bob"},
			{ID: "m2", Time: 11, From: "bob", To: "dave"},
			{ID: "m3", Time: 12, From: "dave", To: "erin"},
		},
		Roster:     [][]string{{"D", "R", "S", "Y"}},
		Assignment: []map[string]string{{"alice": "S", "bob": "D", "dave": "Y", "erin": "Y"}},
	}
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) { c.RelayCapacity = 1 })
	want := map[string]struct {
		at     int64
		copies int
	}{"m1": {200, 2}, "m2": {-1, 0}, "m3": {12, 1}}
	for _, d := range res.Summary.Deliveries() {
		w := want[d.MsgID]
		if d.DeliveredAt != w.at || d.CopiesAtDelivery != w.copies {
			t.Errorf("%s delivered at %d with %d copies, want at %d with %d",
				d.MsgID, d.DeliveredAt, d.CopiesAtDelivery, w.at, w.copies)
		}
	}
	if m1 := res.Summary.Deliveries()[0]; m1.CopiesAtEnd != 2 {
		t.Errorf("m1 ends with %d copies, want 2 (S and D)", m1.CopiesAtEnd)
	}
}

func TestRandomExtraBuses(t *testing.T) {
	tr := miniTrace(t)
	m := RandomExtraBuses(tr, 3, 7)
	if len(m) != len(tr.Buses) {
		t.Fatalf("strategy covers %d buses, want %d", len(m), len(tr.Buses))
	}
	for bus, extras := range m {
		if len(extras) != 3 {
			t.Errorf("%s has %d extras, want 3", bus, len(extras))
		}
		for _, e := range extras {
			if e == bus {
				t.Errorf("%s chose itself", bus)
			}
		}
	}
	if RandomExtraBuses(tr, 0, 7) != nil {
		t.Error("k=0 should be nil")
	}
}

func TestSelectedExtraBusesPrefersFrequentPartners(t *testing.T) {
	tr := &trace.Trace{
		Days:  1,
		Buses: []string{"a", "b", "c"},
		Encounters: []trace.Encounter{
			{Time: 1, A: "a", B: "b"},
			{Time: 2, A: "a", B: "b"},
			{Time: 3, A: "a", B: "c"},
		},
		Roster:     [][]string{{"a", "b", "c"}},
		Assignment: []map[string]string{{}},
	}
	m := SelectedExtraBuses(tr, 1)
	if got := m["a"]; len(got) != 1 || got[0] != "b" {
		t.Errorf("a's top partner = %v, want [b]", got)
	}
	if SelectedExtraBuses(tr, 0) != nil {
		t.Error("k=0 should be nil")
	}
}

func TestMessageLifetimeBoundsDelivery(t *testing.T) {
	tr := miniTrace(t)
	free := runPolicy(t, tr, PolicyEpidemic, nil)
	bounded := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.MessageLifetime = 6 * 3600
	})
	if bounded.ItemsTransferred > free.ItemsTransferred {
		t.Error("bounded lifetime should not increase traffic")
	}
	// Every bounded delivery happened within the lifetime.
	for _, d := range bounded.Summary.Deliveries() {
		if d.Delivered() && d.Delay() >= 6*3600 {
			t.Errorf("message %s delivered after its lifetime (%ds)", d.MsgID, d.Delay())
		}
	}
	if bounded.Duplicates != 0 {
		t.Error("lifetime must not break at-most-once")
	}
}

func TestEventLog(t *testing.T) {
	tr := miniTrace(t)
	var log strings.Builder
	runPolicy(t, tr, PolicyEpidemic, func(c *Config) { c.EventLog = &log })
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	var injects, delivers, encounters int
	for _, line := range lines {
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			t.Fatalf("malformed event line %q", line)
		}
		switch fields[1] {
		case "inject":
			injects++
		case "deliver":
			delivers++
		case "encounter":
			encounters++
		default:
			t.Fatalf("unknown event %q", fields[1])
		}
	}
	if injects != len(tr.Messages) {
		t.Errorf("logged %d injects, want %d", injects, len(tr.Messages))
	}
	if delivers == 0 || encounters == 0 {
		t.Errorf("missing events: %d delivers, %d encounters", delivers, encounters)
	}
}

func TestTwoHopBaselineBetweenBasicAndEpidemic(t *testing.T) {
	tr := miniTrace(t)
	basic := runPolicy(t, tr, PolicyBasic, nil)
	two := runPolicy(t, tr, PolicyTwoHop, nil)
	epi := runPolicy(t, tr, PolicyEpidemic, nil)
	if two.Summary.DeliveredCount() < basic.Summary.DeliveredCount() {
		t.Errorf("two-hop delivered %d < basic %d",
			two.Summary.DeliveredCount(), basic.Summary.DeliveredCount())
	}
	if two.Summary.DeliveredCount() > epi.Summary.DeliveredCount() {
		t.Errorf("two-hop delivered %d > epidemic %d",
			two.Summary.DeliveredCount(), epi.Summary.DeliveredCount())
	}
	if two.ItemsTransferred >= epi.ItemsTransferred {
		t.Error("two-hop should move less traffic than epidemic")
	}
	if two.Duplicates != 0 {
		t.Error("two-hop broke at-most-once")
	}
}
