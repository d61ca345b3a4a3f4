// Command dtnbench is the repository's benchmark: one seeded, closed-loop,
// single-process program that drives live encounters between real
// transport.Server / transport.EncounterOpts pairs over loopback TCP and the
// paper's trace-driven emulation, prints every metric by name with its unit,
// checks its own outputs, and — in a separate traced pass — times the calls
// into each layer's public functions so the layer rows account for the
// end-to-end row. README.md has the metric and workload tables and the
// layer-to-end-to-end predictions later changes are judged against.
//
// Usage:
//
//	dtnbench -seed 1 -out results.json         # every workload, both passes
//	dtnbench -workload hub-fanin -trace-out spans.jsonl
//	dtnbench -runs 10 -workload emu-paper -out a.json
//	dtnbench -compare a.json b.json            # improved/unchanged/regressed/unresolved
//	dtnbench --workload pair-recurring --seed 3 --seconds 10 --trace 0
//
// The last form is the benchmark driver's (BENCHMARK.json, through bench.sh,
// which builds the program inside the checkout first): one workload, with
// -trace 0 the measured phase alone and the end-to-end metrics, with
// -trace 1 the traced pass too and the layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The end-to-end timings are scaled to a nominal host by a reading of the
// host's memory speed taken during the run (hostref.go); raw.* has them as
// measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, 1))
}

// run is main with its inputs and outputs made explicit. scale is 1 except
// in the package test, which runs every workload at about 1% size.
func run(args []string, stdout, stderr io.Writer, scale float64) int {
	fs := flag.NewFlagSet("dtnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: pair-recurring, hub-fanin, bulk-first-contact, durable-small, emu-paper, all")
		seed     = fs.Int64("seed", 1, "input generator seed; run i of -runs uses seed+i")
		seconds  = fs.Int("seconds", 10, "nominal length of each measured phase; operation counts are fixed multiples of it")
		trace    = fs.Int("trace", 0, "0: measured phase only, end-to-end metrics; 1: traced pass too, layer metrics; unset: both, every metric")
		runs     = fs.Int("runs", 1, "runs per workload, for a set -compare can take a spread from")
		out      = fs.String("out", "", "write the environment block and every run's metrics to this JSON file")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
		tmpDir   = fs.String("tmpdir", ".bench_build", "directory for durable-small's WAL directories")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments; non-zero exit on regression")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "dtnbench: %v\n", err)
		return code
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(2, fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(2, err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	mode := modeAll
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			mode = modeEndToEnd
			if *trace != 0 {
				mode = modeLayers
			}
		}
	})
	names, err := selectWorkloads(*workload)
	if err != nil {
		return fail(2, err)
	}
	if *seconds < 1 || *runs < 1 {
		return fail(2, fmt.Errorf("-seconds and -runs must be at least 1"))
	}
	cfg := Config{
		Seed: *seed, Seconds: *seconds, Dialers: runtime.NumCPU(), TmpDir: *tmpDir,
		SetupReps: 3, Traced: mode != modeEndToEnd, scale: scale,
	}
	if mode == modeLayers {
		cfg.SetupReps = 1 // setup_s is an end-to-end metric
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		cfg.TraceOut = f
	}

	report := Report{Env: environment(cfg)}
	code := 0
	var dials dialBudget
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			one := cfg
			one.Seed = cfg.Seed + int64(i)
			res, err := runWorkload(name, one, &dials)
			if err != nil {
				return fail(1, err)
			}
			report.Runs = append(report.Runs, res)
			printResult(stdout, res, mode)
			if !res.Correct {
				code = 1
			}
		}
	}
	if *out != "" {
		if err := report.write(*out); err != nil {
			return fail(1, err)
		}
	}
	return code
}

func selectWorkloads(name string) ([]string, error) {
	if name == "all" {
		return allWorkloads, nil
	}
	for _, w := range allWorkloads {
		if w == name {
			return []string{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one workload once.
func runWorkload(name string, cfg Config, dials *dialBudget) (*Result, error) {
	if name == wlEmu {
		return runEmu(cfg)
	}
	for _, lw := range liveTable() {
		if lw.name == name {
			return runLive(lw, cfg, dials)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// outputMode selects which metrics a result line carries.
type outputMode int

const (
	modeAll      outputMode = iota // every metric the run produced
	modeEndToEnd                   // BENCHMARK.json's end_to_end list
	modeLayers                     // BENCHMARK.json's per_layer list
)

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// lineFor selects the metrics mode asks for. The driver wants every listed
// metric from every workload, so a layer that does no work on this workload
// reads 0; and it wants each metric as exactly a value and a unit, so the
// sample counts stay in the table above the line and in the -out file.
func lineFor(res *Result, mode outputMode) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metricSet{}}
	for _, d := range metricDefs {
		v, have := res.Metrics[d.Name]
		switch {
		case mode == modeAll && !have:
			continue
		case mode == modeEndToEnd && !d.driverEndToEnd():
			continue
		case mode == modeLayers && d.driverEndToEnd():
			continue
		}
		line.Metrics[d.Name] = Metric{Value: v.Value, Unit: d.Unit}
	}
	return line
}

// printResult prints every metric of the run by name with its unit, the
// run's counts, notes and failures, and the result line last.
func printResult(w io.Writer, res *Result, mode outputMode) {
	line := lineFor(res, mode)
	fmt.Fprintf(w, "== %s (seed %d) ==\n", res.Workload, res.Seed)
	for _, d := range metricDefs {
		v, ok := line.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-40s %16.6g %-8s", d.Name, v.Value, v.Unit)
		if n := res.Metrics[d.Name].Samples; n > 0 {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "count %-34s %16d\n", k, res.Counts[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	js, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Fprintf(w, "%s\n", js)
}

// Report is the -out file: where the numbers were taken, then every run.
type Report struct {
	Env  Env       `json:"env"`
	Runs []*Result `json:"runs"`
}

func (r *Report) write(path string) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
