// Command tracegen generates an encounter trace and message workload and
// writes them as CSV files, so they can be inspected, replayed with dtnsim
// -trace, or replaced by real traces. The default scenario is the synthetic
// DieselNet-like trace with an Enron-like workload used by the paper's
// experiments; -scenario selects a seeded mobility model instead.
//
// Usage:
//
//	tracegen -out ./traces            # writes nodes.csv, encounters.csv,
//	                                  # messages.csv, assignments.csv
//	tracegen -out ./traces -seed 7 -days 10
//	tracegen -out ./traces -scenario rwp:n=500,seed=7
//	tracegen -out ./traces -scenario community:n=200,cells=3,bias=0.7
//
// Scenario specs (see internal/mobility): dieselnet, rwp, community,
// dir:PATH. The written directory round-trips: dtnsim -scenario dir:DIR (or
// trace.LoadDir) reconstructs the identical trace, silent nodes included
// via nodes.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"replidtn/internal/mobility"
	"replidtn/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory")
		seed     = flag.Int64("seed", 1, "generator seed (ignored when -scenario carries its own seed)")
		days     = flag.Int("days", 0, "override number of days (0 = scenario default)")
		scenario = flag.String("scenario", "", `mobility scenario spec, e.g. "rwp:n=500,seed=7" ("" = paper DieselNet trace)`)
	)
	flag.Parse()
	if err := run(*out, *seed, *days, *scenario); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
}

func run(out string, seed int64, days int, scenario string) error {
	tr, err := buildTrace(seed, days, scenario)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	// nodes.csv pins the roster so loading the directory reconstructs nodes
	// that never appear in an encounter (trace.LoadDir reads it when present).
	if err := writeFile(filepath.Join(out, trace.NodesFile), func(f *os.File) error {
		return trace.WriteNodes(f, tr.Buses)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(out, "encounters.csv"), func(f *os.File) error {
		return trace.WriteEncounters(f, tr.Encounters)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(out, "messages.csv"), func(f *os.File) error {
		return trace.WriteMessages(f, tr.Messages)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(out, "assignments.csv"), func(f *os.File) error {
		return trace.WriteAssignments(f, tr.Assignment)
	}); err != nil {
		return err
	}
	st := tr.ComputeStats()
	fmt.Printf("wrote %s\n", out)
	fmt.Printf("nodes: %d\n", len(tr.Buses))
	fmt.Printf("days: %d\n", st.Days)
	fmt.Printf("encounters: %d (%.1f/day)\n", st.TotalEncounters, st.EncountersPerDay)
	fmt.Printf("avg active buses/day: %.1f\n", st.AvgActiveBuses)
	fmt.Printf("messages: %d\n", st.TotalMessages)
	fmt.Printf("distinct meeting pairs: %d\n", st.DistinctPairs)
	return nil
}

func buildTrace(seed int64, days int, scenario string) (*trace.Trace, error) {
	if scenario != "" {
		if days > 0 {
			return nil, fmt.Errorf("-days does not apply to -scenario; set days in the spec (e.g. %q)",
				fmt.Sprintf("%s,days=%d", scenario, days))
		}
		return mobility.Parse(scenario)
	}
	dn := trace.DefaultDieselNet()
	dn.Seed = seed
	wl := trace.DefaultWorkload()
	wl.Seed = seed + 1
	if days > 0 {
		dn.Days = days
		if wl.InjectDays > days {
			wl.InjectDays = days
		}
	}
	return trace.Generate(dn, wl, seed+2)
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
