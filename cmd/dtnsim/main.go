// Command dtnsim runs the paper's evaluation experiments and prints the
// corresponding tables and figures as text.
//
// Usage:
//
//	dtnsim -experiment all            # every table and figure (default)
//	dtnsim -experiment fig7a          # one experiment
//	dtnsim -experiment fig9 -small    # scaled-down trace (fast)
//	dtnsim -experiment fig5 -seed 7   # different trace seed
//	dtnsim -experiment fig7a -scenario dir:./traces   # run on an external CSV trace
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
// The experiment names are those of the index in internal/experiment, which
// the -experiment flag's help lists.
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
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"replidtn/internal/experiment"
	"replidtn/internal/fault"
	"replidtn/internal/mobility"
	"replidtn/internal/replica"
	"replidtn/internal/trace"
)

func main() {
	var (
		name       = flag.String("experiment", "all", "experiment to run: "+strings.Join(experiment.Names(), ", "))
		small      = flag.Bool("small", false, "use the scaled-down trace (fast)")
		seed       = flag.Int64("seed", 1, "trace generator seed")
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
	s := experiment.Settings{Faults: faults, Summaries: *summaries}
	if *obsDump {
		s.Obs = &replica.Stats{}
	}
	if err := run(os.Stdout, *name, *small, *seed, *scenario, s); err != nil {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "dtnsim: %v\n", err)
		os.Exit(1)
	}
	if s.Obs != nil {
		dumpObs(os.Stderr, s.Obs)
	}
}

// dumpObs renders the summed replica ledger as indented JSON, in the replica
// and store sections of dtnnode's /metrics. The dump goes to stderr so
// experiment tables on stdout stay byte-comparable across runs.
func dumpObs(w *os.File, st *replica.Stats) {
	out, err := json.MarshalIndent(map[string]any{"replica": st, "store": st.Store()}, "", "  ")
	if err != nil {
		fmt.Fprintf(w, "dtnsim: metrics dump: %v\n", err)
		return
	}
	fmt.Fprintf(w, "== observability counters (aggregated over all nodes and runs) ==\n%s\n", out)
}

func run(w io.Writer, name string, small bool, seed int64, scenario string, s experiment.Settings) error {
	tr, err := buildTrace(small, seed, scenario)
	if err != nil {
		return err
	}
	return experiment.Run(w, name, tr, s)
}

func buildTrace(small bool, seed int64, scenario string) (*trace.Trace, error) {
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
