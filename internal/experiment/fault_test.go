package experiment

import (
	"strings"
	"testing"

	"replidtn/internal/emu"
	"replidtn/internal/fault"
	"replidtn/internal/mobility"
)

// seed1 runs the fault sweep's grid on fault seed 1.
var seed1 = Settings{Faults: fault.Config{Seed: 1}}

// TestAcceptanceEpidemicSurvivesDrops is the PR's headline acceptance
// criterion: with 30% of encounters dropped under a fixed fault seed,
// epidemic routing still delivers every message eventually on the small
// trace, with zero duplicate deliveries — and repeated runs are byte-
// identical.
func TestAcceptanceEpidemicSurvivesDrops(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*emu.Result, string) {
		var log strings.Builder
		res, err := emu.Run(emu.Config{
			Trace:    tr,
			Policy:   emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
			Faults:   fault.Config{Seed: 1, Drop: 0.3},
			EventLog: &log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, log.String()
	}
	res, log := run()
	if res.EncountersDropped == 0 {
		t.Fatal("drop=0.3 dropped no encounters — faults not active")
	}
	if got, want := res.Summary.DeliveredCount(), res.Summary.Total(); got != want {
		t.Errorf("delivered %d of %d messages under drop=0.3", got, want)
	}
	if res.Duplicates != 0 {
		t.Errorf("at-most-once violated under faults: %d duplicates", res.Duplicates)
	}
	// Determinism: the same seed reproduces the run bit for bit.
	res2, log2 := run()
	if res.Summary.DeliveredCount() != res2.Summary.DeliveredCount() ||
		res.EncountersDropped != res2.EncountersDropped ||
		res.ItemsTransferred != res2.ItemsTransferred ||
		res.BytesTransferred != res2.BytesTransferred {
		t.Error("faulted rerun diverged")
	}
	if log != log2 {
		t.Error("faulted rerun produced a different event log")
	}
}

// TestRunFaultSweep exercises the sweep driver end to end on a reduced grid
// and checks its structural guarantees: the zero-fault row reproduces the
// fault-free baseline, faulted rows actually fault, and the sweep is
// deterministic.
func TestRunFaultSweep(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	drops := []float64{0, 0.3}
	cutoffs := []int{2}
	rows, err := RunFaultSweep(tr, drops, cutoffs, seed1)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(emu.AllPolicies) * (len(drops) + len(cutoffs)); len(rows) != want {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Delivered < 0 || r.Delivered > 1 {
			t.Errorf("%s %s: delivered fraction %f out of range", r.Policy, r.Setting, r.Delivered)
		}
		switch {
		case r.Setting == "drop=0.00":
			if r.EncountersDropped != 0 || r.SyncsAborted != 0 {
				t.Errorf("%s: zero-fault row recorded faults: %+v", r.Policy, r)
			}
		case strings.HasPrefix(r.Setting, "drop="):
			if r.EncountersDropped == 0 {
				t.Errorf("%s %s: no encounters dropped", r.Policy, r.Setting)
			}
		case strings.HasPrefix(r.Setting, "cutoff"):
			if r.SyncsAborted == 0 {
				t.Errorf("%s %s: no syncs aborted", r.Policy, r.Setting)
			}
		}
	}
	again, err := RunFaultSweep(tr, drops, cutoffs, seed1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Errorf("sweep row %d not deterministic:\n%+v\n%+v", i, rows[i], again[i])
		}
	}
	out := FormatFaultSweep(rows)
	if !strings.Contains(out, "drop=0.30") || !strings.Contains(out, "cutoff<=2") {
		t.Errorf("formatted sweep missing settings:\n%s", out)
	}
	if !strings.Contains(out, "know B/enc") {
		t.Errorf("formatted sweep missing knowledge bytes-per-encounter column:\n%s", out)
	}
}

// TestFaultSweepWithoutMessages: a trace with no messages (a mobility
// scenario may legitimately have none) delivers 0%, not NaN%.
func TestFaultSweepWithoutMessages(t *testing.T) {
	cfg := mobility.Defaults()
	cfg.Nodes = 10
	cfg.Messages = 0
	tr, err := mobility.RWP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunFaultSweep(tr, []float64{0}, []int{1}, seed1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Delivered != 0 || r.Delivered12h != 0 {
			t.Errorf("%s %s: delivered %v, 12h %v; want 0 of 0 messages", r.Policy, r.Setting, r.Delivered, r.Delivered12h)
		}
	}
	if out := FormatFaultSweep(rows); strings.Contains(out, "NaN%") {
		t.Errorf("formatted sweep prints NaN%%:\n%s", out)
	}
}

// TestSweepSummariesAblation is the bytes-per-encounter ablation: rerunning
// the fault sweep and the filter sweep with the compact summary protocol
// enabled must leave every delivery number untouched while shrinking the
// knowledge bytes shipped per encounter.
func TestSweepSummariesAblation(t *testing.T) {
	tr, err := SmallTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	drops := []float64{0, 0.3}
	cutoffs := []int{2}
	plain, err := RunFaultSweep(tr, drops, cutoffs, seed1)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunFaultSweep(tr, drops, cutoffs, Settings{Faults: fault.Config{Seed: 1}, Summaries: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		p, s := plain[i], sum[i]
		p.KnowledgeBytesPerEnc, s.KnowledgeBytesPerEnc = 0, 0
		if p != s {
			t.Errorf("row %d: summaries changed delivery results:\nplain     %+v\nsummaries %+v", i, p, s)
		}
		if sum[i].KnowledgeBytesPerEnc >= plain[i].KnowledgeBytesPerEnc {
			t.Errorf("%s %s: summaries did not shrink knowledge traffic: %.1f >= %.1f B/enc",
				plain[i].Policy, plain[i].Setting, sum[i].KnowledgeBytesPerEnc, plain[i].KnowledgeBytesPerEnc)
		}
	}

	ks := []int{0, 2}
	fsPlain, err := RunFilterSweep(tr, ks, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	fsSum, err := RunFilterSweep(tr, ks, Settings{Summaries: true})
	if err != nil {
		t.Fatal(err)
	}
	kp, ksum := fsPlain.KnowledgePerEncounter(), fsSum.KnowledgePerEncounter()
	for si := range kp {
		for i := range kp[si].Y {
			if ksum[si].Y[i] >= kp[si].Y[i] {
				t.Errorf("filter sweep %s k=%v: summaries did not shrink knowledge traffic: %.1f >= %.1f B/enc",
					kp[si].Label, kp[si].X[i], ksum[si].Y[i], kp[si].Y[i])
			}
		}
	}
	for _, k := range ks {
		if fsPlain.Random[k].Summary.DeliveredCount() != fsSum.Random[k].Summary.DeliveredCount() {
			t.Errorf("filter sweep k=%d: summaries changed delivered count", k)
		}
	}
}
