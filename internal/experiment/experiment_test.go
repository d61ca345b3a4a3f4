package experiment

import (
	"strings"
	"testing"

	"replidtn/internal/emu"
	"replidtn/internal/trace"
)

func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := SmallTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFilterSweepShape(t *testing.T) {
	tr := smallTrace(t)
	fs, err := RunFilterSweep(tr, []int{0, 2, 4}, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	fig5 := fs.Fig5()
	if len(fig5) != 2 || len(fig5[0].Y) != 3 {
		t.Fatalf("Fig5 series malformed: %+v", fig5)
	}
	// k = 0 is shared between strategies.
	if fig5[0].Y[0] != fig5[1].Y[0] {
		t.Error("k=0 must be identical for both strategies")
	}
	// Larger filters should not hurt 12-hour delivery for the selected
	// strategy (the paper's monotone improvement).
	fig6 := fs.Fig6()
	sel := fig6[1].Y
	if sel[len(sel)-1] < sel[0] {
		t.Errorf("selected k=4 delivery %.1f%% below k=0 %.1f%%", sel[len(sel)-1], sel[0])
	}
}

func TestFilterSweepDefaultsKs(t *testing.T) {
	tr := smallTrace(t)
	fs, err := RunFilterSweep(tr, nil, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Ks) != len(FilterKs) {
		t.Errorf("default sweep has %d ks", len(fs.Ks))
	}
}

func TestPolicySweepFigures(t *testing.T) {
	tr := smallTrace(t)
	ps, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Results) != len(emu.AllPolicies) {
		t.Fatalf("sweep covers %d policies", len(ps.Results))
	}
	cdf := ps.CDFHours(12)
	if len(cdf) != len(emu.AllPolicies) || len(cdf[0].X) != 12 {
		t.Fatalf("CDFHours malformed")
	}
	for _, s := range cdf {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s CDF not monotone at %d", s.Label, i)
			}
		}
	}
	days := ps.CDFDays(5)
	if len(days[0].X) != 5 || days[0].X[0] != 1 {
		t.Errorf("CDFDays x-axis malformed: %v", days[0].X)
	}
	// Epidemic should dominate the basic substrate at every bound.
	var basic, epi []float64
	for _, s := range cdf {
		switch s.Label {
		case string(emu.PolicyBasic):
			basic = s.Y
		case string(emu.PolicyEpidemic):
			epi = s.Y
		}
	}
	for i := range basic {
		if epi[i] < basic[i]-1e-9 {
			t.Errorf("epidemic below basic at hour %d: %.1f < %.1f", i+1, epi[i], basic[i])
		}
	}
}

func TestFig8Accounting(t *testing.T) {
	tr := smallTrace(t)
	ps, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	rows := ps.Fig8()
	if len(rows) != len(emu.AllPolicies) {
		t.Fatalf("Fig8 has %d rows", len(rows))
	}
	byName := map[emu.PolicyName]Fig8Row{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// The basic substrate stores about two copies per message.
	if got := byName[emu.PolicyBasic].CopiesAtEnd; got > 2.5 {
		t.Errorf("basic end copies = %.2f, want ≈2", got)
	}
	// Spray bounds its footprint; epidemic floods.
	if byName[emu.PolicySpray].CopiesAtEnd > byName[emu.PolicyEpidemic].CopiesAtEnd {
		t.Error("spray should store fewer end copies than epidemic")
	}
	out := FormatFig8(rows)
	if !strings.Contains(out, "copies at end") || !strings.Contains(out, "spray") {
		t.Error("FormatFig8 output malformed")
	}
}

func TestConstrainedSweeps(t *testing.T) {
	tr := smallTrace(t)
	free, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := RunPolicySweep(tr, emu.DefaultParams(), 1, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 2, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range emu.AllPolicies {
		if bw.Results[name].ItemsTransferred > free.Results[name].ItemsTransferred {
			t.Errorf("%s: bandwidth constraint increased traffic", name)
		}
		if name == emu.PolicyBasic {
			continue
		}
		// Constrained policies still beat the constrained basic substrate.
		basic := bw.Results[emu.PolicyBasic].Summary.DeliveredWithin(Deadline12h)
		if got := bw.Results[name].Summary.DeliveredWithin(Deadline12h); got < basic-1e-9 {
			t.Errorf("%s under bandwidth constraint (%.2f) worse than basic (%.2f)", name, got, basic)
		}
		basicSt := st.Results[emu.PolicyBasic].Summary.DeliveredWithin(Deadline12h)
		if got := st.Results[name].Summary.DeliveredWithin(Deadline12h); got < basicSt-1e-9 {
			t.Errorf("%s under storage constraint (%.2f) worse than basic (%.2f)", name, got, basicSt)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	out := FormatTable1(rows)
	for _, want := range []string{"Epidemic", "Spray&Wait", "PROPHET", "MaxProp", "Dijkstra"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	out := FormatTable2(emu.DefaultParams())
	for _, want := range []string{"TTL = 10", "copies per message = 8", "P_init = 0.75", "beta = 0.25", "gamma = 0.98", "threshold = 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q in:\n%s", want, out)
		}
	}
}

func TestSmallTraceValid(t *testing.T) {
	tr := smallTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats()
	if st.TotalMessages != 60 || st.Days != 5 {
		t.Errorf("small trace stats: %+v", st)
	}
}

func TestSuiteRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite run in -short mode")
	}
	tr := smallTrace(t)
	var b strings.Builder
	if err := Run(&b, "all", tr, Settings{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "Table II", "Fig. 5", "Fig. 6", "Fig. 7(a)", "Fig. 7(b)", "Fig. 8", "Fig. 9", "Fig. 10"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
	// Mean delay can be NaN only if a configuration delivered nothing, which
	// must not happen on the small trace.
	if strings.Contains(out, "NaN") {
		t.Error("suite output contains NaN values")
	}
}

func TestSummaryRows(t *testing.T) {
	tr := smallTrace(t)
	ps, err := RunPolicySweep(tr, emu.DefaultParams(), 0, 0, Settings{})
	if err != nil {
		t.Fatal(err)
	}
	rows := ps.SummaryRows()
	if len(rows) != len(emu.AllPolicies) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DuplicateReceipts != 0 {
			t.Errorf("%s: duplicates in summary", r.Policy)
		}
		if r.Delivered > r.Total {
			t.Errorf("%s: delivered %d > total %d", r.Policy, r.Delivered, r.Total)
		}
		if r.MedianDelayHours > r.P90DelayHours || r.P90DelayHours > r.MaxDelayHours {
			t.Errorf("%s: percentile ordering violated (%.1f, %.1f, %.1f)",
				r.Policy, r.MedianDelayHours, r.P90DelayHours, r.MaxDelayHours)
		}
	}
	out := FormatSummary(rows)
	if !strings.Contains(out, "cimbiosys") || !strings.Contains(out, "median") {
		t.Error("summary table malformed")
	}
}
