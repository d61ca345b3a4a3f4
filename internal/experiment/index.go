package experiment

import (
	"fmt"
	"io"

	"replidtn/internal/emu"
	"replidtn/internal/metrics"
	"replidtn/internal/trace"
)

// SmallTrace generates a scaled-down paper trace (5 days, 12-bus fleet, 60
// messages) that preserves the full trace's structure. Tests and benchmarks
// use it to keep the evaluation loop fast; the CLI uses the full trace.
func SmallTrace(seed int64) (*trace.Trace, error) {
	dn := trace.DefaultDieselNet()
	dn.Days = 5
	dn.FleetSize = 12
	dn.ActivePerDay = 10
	dn.Routes = 4
	dn.EncountersPerDay = 220
	dn.Seed = seed
	wl := trace.DefaultWorkload()
	wl.Users = 20
	wl.Messages = 60
	wl.InjectDays = 2
	wl.Seed = seed + 1
	return trace.Generate(dn, wl, seed+2)
}

// entry is one experiment of the index.
type entry struct {
	// name selects the entry; the sync-overhead table has none and renders
	// only within "all".
	name string
	// title heads the rendering: alone on its own line, within "all" as
	// "== title ==".
	title string
	// paper entries are the ones "all" renders; bare ones print no title
	// alone.
	paper, bare bool
	// static entries run no emulation, and ownFaults ones inject their own
	// faults: Run heads neither with the settings they do not run under.
	static, ownFaults bool
	// render runs the sweep the entry reads, if the runner has not yet, and
	// renders the entry's body.
	render func(*runner) (string, error)
}

// index is the one list of experiments, in the order "all" renders the
// paper's tables and figures (§VI: Tables I–II, Figs. 5–10).
var index = append([]entry{
	{name: "table1", title: "Table I: DTN routing policies", paper: true, bare: true, static: true, render: text(func() string { return FormatTable1(Table1()) })},
	{name: "table2", title: "Table II: protocol parameters", paper: true, bare: true, static: true, render: text(func() string { return FormatTable2(emu.DefaultParams()) })},
	{name: "fig5", title: "Fig. 5: average message delay (hours) vs addresses in filter", paper: true, render: filterTable((*FilterSweep).Fig5)},
	{name: "fig6", title: "Fig. 6: % delivered within 12 hours vs addresses in filter", paper: true, render: filterTable((*FilterSweep).Fig6)},
	{title: "Sync overhead: knowledge bytes per encounter vs addresses in filter", paper: true, render: filterTable((*FilterSweep).KnowledgePerEncounter)},
	{name: "fig7a", title: "Fig. 7(a): delay CDF, first 12 hours (% delivered)", paper: true, render: policyTable(0, 0, hoursCDF)},
	{name: "fig7b", title: "Fig. 7(b): delay CDF, 1-10 days (% delivered)", paper: true, render: policyTable(0, 0, func(ps *PolicySweep) string {
		return metrics.FormatTable("days", ps.CDFDays(10))
	})},
	{name: "fig8", title: "Fig. 8: average stored copies per message", paper: true, render: policyTable(0, 0, func(ps *PolicySweep) string {
		return FormatFig8(ps.Fig8())
	})},
	{name: "fig9", title: "Fig. 9: delay CDF under bandwidth constraint (1 msg/encounter)", paper: true, render: policyTable(1, 0, hoursCDF)},
	{name: "fig10", title: "Fig. 10: delay CDF under storage constraint (2 relayed msgs/node)", paper: true, render: policyTable(0, 2, hoursCDF)},
	{name: "summary", title: "Per-policy overview (unconstrained)", render: policyTable(0, 0, func(ps *PolicySweep) string {
		return FormatSummary(ps.SummaryRows())
	})},
	// The fault sweep's title names the fault seed, so its body carries it.
	{name: "fault-sweep", bare: true, ownFaults: true, render: func(r *runner) (string, error) {
		rows, err := RunFaultSweep(r.tr, nil, nil, r.s)
		return fmt.Sprintf("Fault sweep: delivery vs encounter drop probability and cutoff budget (seed %d)\n%s",
			r.s.Faults.Seed, FormatFaultSweep(rows)), err
	}},
}, ablationEntries()...)

// ablationEntries gives each row of Ablations its entry, after the paper's.
func ablationEntries() []entry {
	out := make([]entry, len(Ablations))
	for i, a := range Ablations {
		out[i] = entry{name: a.Name, title: a.Title, render: func(r *runner) (string, error) {
			rows, err := RunAblation(r.tr, a, nil, r.s)
			return FormatAblation(rows), err
		}}
	}
	return out
}

// runner runs the sweeps of one Run, each at most once.
type runner struct {
	tr       *trace.Trace
	s        Settings
	filters  *FilterSweep
	policies map[[2]int]*PolicySweep
}

// text renders an entry that needs no emulation run.
func text(f func() string) func(*runner) (string, error) {
	return func(*runner) (string, error) { return f(), nil }
}

// filterTable renders series of the filter sweep.
func filterTable(series func(*FilterSweep) []metrics.Series) func(*runner) (string, error) {
	return func(r *runner) (string, error) {
		if r.filters == nil {
			fs, err := RunFilterSweep(r.tr, nil, r.s)
			if err != nil {
				return "", err
			}
			r.filters = fs
		}
		return metrics.FormatTable("k", series(r.filters)), nil
	}
}

// policyTable renders the policy sweep under one constraint setting.
func policyTable(maxPerEncounter, relayCapacity int, render func(*PolicySweep) string) func(*runner) (string, error) {
	return func(r *runner) (string, error) {
		key := [2]int{maxPerEncounter, relayCapacity}
		if r.policies[key] == nil {
			ps, err := RunPolicySweep(r.tr, emu.DefaultParams(), maxPerEncounter, relayCapacity, r.s)
			if err != nil {
				return "", err
			}
			r.policies[key] = ps
		}
		return render(r.policies[key]), nil
	}
}

// head prints a line for each setting that is not the default and that
// e's runs get.
func (s Settings) head(w io.Writer, e entry) {
	if e.static {
		return
	}
	if s.Summaries {
		fmt.Fprintln(w, "[sync summaries: on]")
	}
	if s.Faults.Enabled() && !e.ownFaults {
		fmt.Fprintf(w, "[faults: %s]\n", s.Faults)
	}
}

func hoursCDF(ps *PolicySweep) string { return metrics.FormatTable("hours", ps.CDFHours(12)) }

// Names lists the experiments Run renders: "all", then the index's names in
// order.
func Names() []string {
	names := []string{"all"}
	for _, e := range index {
		if e.name != "" {
			names = append(names, e.name)
		}
	}
	return names
}

// Run renders the named experiment of the index on tr to w, or with "all"
// every paper entry in index order, each sweep run once, headed by a line
// for each setting of s its runs get.
func Run(w io.Writer, name string, tr *trace.Trace, s Settings) error {
	r := &runner{tr: tr, s: s, policies: map[[2]int]*PolicySweep{}}
	if name == "all" {
		s.head(w, entry{})
	}
	for _, e := range index {
		all := name == "all" && e.paper
		if !all && (name != e.name || e.name == "") {
			continue
		}
		if !all {
			s.head(w, e)
		}
		body, err := e.render(r)
		if err != nil {
			return err
		}
		if all {
			fmt.Fprintf(w, "== %s ==\n%s\n", e.title, body)
			continue
		}
		if !e.bare {
			fmt.Fprintln(w, e.title)
		}
		fmt.Fprint(w, body)
		return nil
	}
	if name != "all" {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
