// Command dtnsim runs the paper's evaluation experiments and prints the
// corresponding tables and figures as text.
//
// Usage:
//
//	dtnsim -experiment all            # every table and figure (default)
//	dtnsim -experiment fig7a          # one experiment
//	dtnsim -experiment fig9 -small    # scaled-down trace (fast)
//	dtnsim -experiment fig5 -seed 7   # different trace seed
//	dtnsim -experiment fig7a -trace ./traces   # run on an external CSV trace
//	dtnsim -experiment fig7a -scenario rwp:n=1000,seed=7   # seeded mobility scenario
//	dtnsim -experiment fig7a -cpuprofile cpu.out   # profile the run
//
// Each experiment's emulation runs are independent and deterministic; they
// execute concurrently, one per CPU, and the output does not depend on how
// many CPUs there are.
//
// Scenario specs (see internal/mobility): dieselnet, rwp, community,
// dir:PATH — e.g. "rwp:n=1000,seed=7" or "community:n=500,cells=3,bias=0.7".
//
// Experiments: table1, table2, fig5, fig6, fig7a, fig7b, fig8, fig9, fig10,
// all, summary, fault-sweep; ablations: ablation-ttl,
// ablation-copies, ablation-threshold, ablation-bandwidth, ablation-bytes,
// ablation-storage, ablation-lifetime, ablation-eviction.
//
// Fault injection (deterministic, seeded):
//
//	dtnsim -experiment fig7a -faults drop=0.3                # drop 30% of encounters
//	dtnsim -experiment fig7a -faults drop=0.1,cutoff=0.3,cutoff-items=2,crash=0.01
//	dtnsim -experiment fault-sweep -small                    # delivery vs fault dose
//	dtnsim -experiment fig7a -faults drop=0.3 -fault-seed 7  # different fault schedule
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"replidtn/internal/emu"
	"replidtn/internal/experiment"
	"replidtn/internal/fault"
	"replidtn/internal/metrics"
	"replidtn/internal/mobility"
	"replidtn/internal/obs"
	"replidtn/internal/trace"
)

func main() {
	var (
		name       = flag.String("experiment", "all", "experiment to run (table1, table2, fig5..fig10, summary, fault-sweep, ablation-*, all)")
		small      = flag.Bool("small", false, "use the scaled-down trace (fast)")
		seed       = flag.Int64("seed", 1, "trace generator seed")
		traceDir   = flag.String("trace", "", "load the trace from a directory of CSVs instead of generating it")
		scenario   = flag.String("scenario", "", `generate the trace from a mobility scenario spec, e.g. "rwp:n=1000,seed=7" (dieselnet, rwp, community, dir:PATH)`)
		faultSpec  = flag.String("faults", "", `fault injection spec, e.g. "drop=0.3,cutoff=0.25,cutoff-items=2,crash=0.01" ("" or "off" disables)`)
		faultSeed  = flag.Int64("fault-seed", 1, "fault schedule seed (same seed = same faults)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		obsDump    = flag.Bool("metrics", false, "dump aggregated replica/store observability counters as JSON to stderr at exit")
		summaries  = flag.Bool("summaries", false, "enable the compact knowledge summary sync protocol (delta knowledge for recurring peers); delivery results are identical, knowledge traffic shrinks")
	)
	flag.Parse()
	faults, err := fault.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtnsim: %v\n", err)
		os.Exit(2)
	}
	faults.Seed = *faultSeed
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtnsim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dtnsim: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	var nm *obs.NodeMetrics
	if *obsDump {
		nm = &obs.NodeMetrics{}
	}
	if err := run(*name, *small, *seed, *traceDir, *scenario, faults, nm, *summaries); err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "dtnsim: %v\n", err)
		os.Exit(1)
	}
	if nm != nil {
		dumpObs(os.Stderr, nm)
	}
}

// dumpObs renders the aggregated counters as indented JSON. The dump goes to
// stderr so experiment tables on stdout stay byte-comparable across runs.
func dumpObs(w *os.File, nm *obs.NodeMetrics) {
	out, err := json.MarshalIndent(nm.Snapshot(), "", "  ")
	if err != nil {
		fmt.Fprintf(w, "dtnsim: metrics dump: %v\n", err)
		return
	}
	fmt.Fprintf(w, "== observability counters (aggregated over all nodes and runs) ==\n%s\n", out)
}

func run(name string, small bool, seed int64, traceDir, scenario string, faults fault.Config, nm *obs.NodeMetrics, summaries bool) error {
	tr, err := buildTrace(small, seed, traceDir, scenario)
	if err != nil {
		return err
	}
	params := emu.DefaultParams()
	wf := experiment.WithFaults(faults)
	wo := experiment.WithObs(nm)
	ws := experiment.WithSyncSummaries(summaries)
	if summaries {
		fmt.Fprintln(os.Stdout, "[sync summaries: on]")
	}
	if faults.Enabled() {
		fmt.Fprintf(os.Stdout, "[faults: %s]\n", faults)
	}
	out := os.Stdout

	switch name {
	case "all":
		suite := &experiment.Suite{Trace: tr, Params: params, Faults: faults, Obs: nm, Summaries: summaries}
		return suite.RunAll(out)
	case "table1":
		fmt.Fprint(out, experiment.FormatTable1(experiment.Table1()))
	case "table2":
		fmt.Fprint(out, experiment.FormatTable2(params))
	case "fig5", "fig6":
		fs, err := experiment.RunFilterSweep(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		if name == "fig5" {
			fmt.Fprintf(out, "Fig. 5: average message delay (hours) vs addresses in filter\n%s",
				metrics.FormatTable("k", fs.Fig5()))
		} else {
			fmt.Fprintf(out, "Fig. 6: %% delivered within 12 hours vs addresses in filter\n%s",
				metrics.FormatTable("k", fs.Fig6()))
		}
	case "fig7a", "fig7b", "fig8":
		ps, err := experiment.RunPolicySweep(tr, params, 0, 0, wf, wo, ws)
		if err != nil {
			return err
		}
		switch name {
		case "fig7a":
			fmt.Fprintf(out, "Fig. 7(a): delay CDF, first 12 hours (%% delivered)\n%s",
				metrics.FormatTable("hours", ps.CDFHours(12)))
		case "fig7b":
			fmt.Fprintf(out, "Fig. 7(b): delay CDF, 1-10 days (%% delivered)\n%s",
				metrics.FormatTable("days", ps.CDFDays(10)))
		case "fig8":
			fmt.Fprintf(out, "Fig. 8: average stored copies per message\n%s",
				experiment.FormatFig8(ps.Fig8()))
		}
	case "fig9":
		ps, err := experiment.RunPolicySweep(tr, params, 1, 0, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Fig. 9: delay CDF under bandwidth constraint (1 msg/encounter)\n%s",
			metrics.FormatTable("hours", ps.CDFHours(12)))
	case "fig10":
		ps, err := experiment.RunPolicySweep(tr, params, 0, 2, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Fig. 10: delay CDF under storage constraint (2 relayed msgs/node)\n%s",
			metrics.FormatTable("hours", ps.CDFHours(12)))
	case "summary":
		ps, err := experiment.RunPolicySweep(tr, params, 0, 0, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Per-policy overview (unconstrained)\n%s",
			experiment.FormatSummary(ps.SummaryRows()))
	case "fault-sweep":
		// The sweep injects its own fault grid; -faults selects nothing here,
		// but -fault-seed still picks the schedule.
		rows, err := experiment.RunFaultSweep(tr, faults.Seed, nil, nil, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Fault sweep: delivery vs encounter drop probability and cutoff budget (seed %d)\n%s",
			faults.Seed, experiment.FormatFaultSweep(rows))
	case "ablation-ttl":
		rows, err := experiment.AblationEpidemicTTL(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: epidemic TTL", rows))
	case "ablation-copies":
		rows, err := experiment.AblationSprayCopies(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: spray copy allowance", rows))
	case "ablation-threshold":
		rows, err := experiment.AblationMaxPropThreshold(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: MaxProp hop threshold (1 msg/encounter)", rows))
	case "ablation-bandwidth":
		rows, err := experiment.AblationBandwidth(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: per-encounter budget (epidemic)", rows))
	case "ablation-storage":
		rows, err := experiment.AblationStorage(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: relay capacity (epidemic)", rows))
	case "ablation-bytes":
		rows, err := experiment.AblationByteBudget(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: per-encounter byte budget (epidemic, 1KiB msgs)", rows))
	case "ablation-lifetime":
		rows, err := experiment.AblationLifetime(tr, nil, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: bounded message lifetime (epidemic)", rows))
	case "ablation-eviction":
		rows, err := experiment.AblationEviction(tr, wf, wo, ws)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatAblation("Ablation: relay eviction strategy (capacity 2)", rows))
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func buildTrace(small bool, seed int64, traceDir, scenario string) (*trace.Trace, error) {
	if traceDir != "" {
		return trace.LoadDir(traceDir)
	}
	if scenario != "" {
		return mobility.Parse(scenario)
	}
	if small {
		return experiment.SmallTrace(seed)
	}
	dn := trace.DefaultDieselNet()
	dn.Seed = seed
	wl := trace.DefaultWorkload()
	wl.Seed = seed + 1
	return trace.Generate(dn, wl, seed+2)
}
