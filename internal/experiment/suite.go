package experiment

import (
	"fmt"
	"io"

	"replidtn/internal/emu"
	"replidtn/internal/fault"
	"replidtn/internal/metrics"
	"replidtn/internal/obs"
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

// Suite runs the full evaluation and writes every table and figure to w.
type Suite struct {
	Trace  *trace.Trace
	Params emu.Params
	// Faults, when enabled, injects deterministic encounter faults into every
	// emulation run; the zero value reproduces the fault-free evaluation.
	Faults fault.Config
	// Obs, when set, aggregates replica and store observability counters
	// across every emulation run in the suite (see WithObs). Nil keeps
	// instrumentation off; results are identical either way.
	Obs *obs.NodeMetrics
	// Summaries enables the compact knowledge summary sync protocol on every
	// run (see WithSyncSummaries). Delivery results are identical either way;
	// the sync-overhead table shrinks.
	Summaries bool
}

// NewSuite builds a suite over the paper-calibrated default trace and
// parameters.
func NewSuite() (*Suite, error) {
	tr, err := trace.Default()
	if err != nil {
		return nil, err
	}
	return &Suite{Trace: tr, Params: emu.DefaultParams()}, nil
}

// RunAll executes every experiment and renders the paper's tables and
// figures to w.
func (s *Suite) RunAll(w io.Writer) error {
	opts := []Option{WithFaults(s.Faults), WithObs(s.Obs), WithSyncSummaries(s.Summaries)}
	fmt.Fprintf(w, "== Table I: DTN routing policies ==\n%s\n", FormatTable1(Table1()))
	fmt.Fprintf(w, "== Table II: protocol parameters ==\n%s\n", FormatTable2(s.Params))

	fs, err := RunFilterSweep(s.Trace, nil, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig. 5: average message delay (hours) vs addresses in filter ==\n%s\n",
		metrics.FormatTable("k", fs.Fig5()))
	fmt.Fprintf(w, "== Fig. 6: %% delivered within 12 hours vs addresses in filter ==\n%s\n",
		metrics.FormatTable("k", fs.Fig6()))
	fmt.Fprintf(w, "== Sync overhead: knowledge bytes per encounter vs addresses in filter ==\n%s\n",
		metrics.FormatTable("k", fs.KnowledgePerEncounter()))

	unconstrained, err := RunPolicySweep(s.Trace, s.Params, 0, 0, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig. 7(a): delay CDF, first 12 hours (%% delivered) ==\n%s\n",
		metrics.FormatTable("hours", unconstrained.CDFHours(12)))
	fmt.Fprintf(w, "== Fig. 7(b): delay CDF, 1-10 days (%% delivered) ==\n%s\n",
		metrics.FormatTable("days", unconstrained.CDFDays(10)))
	fmt.Fprintf(w, "== Fig. 8: average stored copies per message ==\n%s\n",
		FormatFig8(unconstrained.Fig8()))

	bandwidth, err := RunPolicySweep(s.Trace, s.Params, 1, 0, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig. 9: delay CDF under bandwidth constraint (1 msg/encounter) ==\n%s\n",
		metrics.FormatTable("hours", bandwidth.CDFHours(12)))

	storage, err := RunPolicySweep(s.Trace, s.Params, 0, 2, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Fig. 10: delay CDF under storage constraint (2 relayed msgs/node) ==\n%s\n",
		metrics.FormatTable("hours", storage.CDFHours(12)))
	return nil
}
