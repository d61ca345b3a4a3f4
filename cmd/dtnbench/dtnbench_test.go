package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"replidtn/internal/replica"
)

// quick is the test's size: every workload at about 1% of its README size,
// seconds in total.
func quick(t *testing.T) Config {
	return Config{Seed: 7, Seconds: 1, Dialers: 2, TmpDir: t.TempDir(), SetupReps: 1, Traced: true, scale: 0.01}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// runQuick runs one workload in quick mode and fails the test on any failed
// operation or output check.
func runQuick(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	var dials dialBudget
	res, err := runWorkload(name, cfg, &dials)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", name, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestEveryDeclaredMetricIsEmitted runs each workload with both passes and
// checks that each metric declared for it comes out, named and with its
// unit, and that nothing undeclared does.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	for _, name := range allWorkloads {
		res := runQuick(t, name, quick(t))
		for _, d := range metricDefs {
			v, ok := res.Metrics[d.Name]
			if d.reportedOn(name) != ok {
				t.Errorf("%s: metric %s emitted=%v, declared=%v", name, d.Name, ok, d.reportedOn(name))
			}
			if ok && (v.Unit == "" || v.Unit != d.Unit) {
				t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, v.Unit, d.Unit)
			}
			if ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)) {
				t.Errorf("%s: metric %s = %v", name, d.Name, v.Value)
			}
			if ok && d.driverEndToEnd() && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v.Value)
			}
		}
		for got := range res.Metrics {
			if !nameRE.MatchString(got) {
				t.Errorf("%s: metric name %q", name, got)
			}
		}
		// Each scaled end-to-end timing is its raw.* twin over the run's
		// host reading; each rate, times it.
		slow := res.Metrics["host.stream_us_per_mb"].Value / refNominalMicrosPerMB
		if slow <= 0 {
			t.Errorf("%s: host.stream_us_per_mb = %v", name, res.Metrics["host.stream_us_per_mb"].Value)
		}
		for metric, raw := range res.Metrics {
			scaled, ok := strings.CutPrefix(metric, "raw.")
			if !ok {
				continue
			}
			want := raw.Value / slow
			if strings.HasSuffix(raw.Unit, "/s") {
				want = raw.Value * slow
			}
			if got := res.Metrics[scaled].Value; math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s: %s = %v, want %v from %s = %v at slowdown %v", name, scaled, got, want, metric, raw.Value, slow)
			}
		}
		if name == wlEmu {
			continue
		}
		// The replay makes the TCP encounter's calls minus the socket, so
		// its median is the smaller one — unless the test machine's load
		// shifted between the two short passes, which one retry rules out.
		if res.Metrics["transport.overhead_us"].Value < 0 {
			res = runQuick(t, name, quick(t))
		}
		if v := res.Metrics["transport.overhead_us"].Value; v < 0 {
			t.Errorf("%s: transport.overhead_us = %v", name, v)
		}
		if v := res.Metrics["trace.child_coverage"].Value; v <= 0 || v > 1 {
			t.Errorf("%s: trace.child_coverage = %v", name, v)
		}
	}
}

// TestSpansNest checks the traced pass's JSON lines: every child lies inside
// its parent and children never add up to more than the parent.
func TestSpansNest(t *testing.T) {
	for _, name := range []string{wlDurable, wlBulk, wlEmu} {
		var buf bytes.Buffer
		cfg := quick(t)
		cfg.TraceOut = &buf
		runQuick(t, name, cfg)

		var spans []spanLine
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var sp spanLine
			if err := dec.Decode(&sp); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, sp)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: no spans written", name)
		}
		children := make([]int64, len(spans))
		names := map[string]bool{}
		for i, sp := range spans {
			names[sp.Name] = true
			if sp.ID != i || sp.EndNS < sp.StartNS || sp.Workload != name {
				t.Fatalf("%s: span %d malformed: %+v", name, i, sp)
			}
			if sp.Parent < 0 {
				continue
			}
			p := spans[sp.Parent]
			if sp.StartNS < p.StartNS || sp.EndNS > p.EndNS {
				t.Errorf("%s: span %d (%s) leaves its parent %d (%s)", name, i, sp.Name, sp.Parent, p.Name)
			}
			children[sp.Parent] += sp.EndNS - sp.StartNS
		}
		for i, sp := range spans {
			if children[i] > sp.EndNS-sp.StartNS {
				t.Errorf("%s: span %d (%s): children take %dns of its %dns", name, i, sp.Name, children[i], sp.EndNS-sp.StartNS)
			}
		}
		want := map[string][]string{
			wlDurable: {"transport.encounter", "messaging.send", "replica.handle_request", "wire.decode_response", "replica.apply_batch", "wal.fs_sync", "wal.fs_write"},
			wlBulk:    {"transport.encounter", "replica.make_request", "wire.encode_request", "wire.decode_request", "wire.encode_response"},
			wlEmu:     {"emu.run"},
		}[name]
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span", name, n)
			}
		}
	}
}

// exactUnits are the units of counts, which repeat exactly on a C=1
// workload; the rest are timings.
var exactUnits = map[string]bool{"count": true, "B": true, "B/item": true, "B/B": true, "allocs": true}

// TestCountsRepeat runs every single-dialer workload twice from one seed:
// each count must come out identical.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{wlPair, wlBulk, wlDurable, wlEmu} {
		a := runQuick(t, name, quick(t))
		b := runQuick(t, name, quick(t))
		for metric, va := range a.Metrics {
			if vb := b.Metrics[metric]; exactUnits[va.Unit] && va.Value != vb.Value {
				t.Errorf("%s: %s = %v, then %v", name, metric, va.Value, vb.Value)
			}
		}
		for k, va := range a.Counts {
			if vb := b.Counts[k]; va != vb {
				t.Errorf("%s: count %s = %d, then %d", name, k, va, vb)
			}
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d, then %d", name, a.Attempted, b.Attempted)
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches the generated inputs.
func TestSeedChangesInputs(t *testing.T) {
	if bytes.Equal(newGen(1).payload(64), newGen(2).payload(64)) {
		t.Error("seeds 1 and 2 generate the same payload")
	}
	if !bytes.Equal(newGen(3).payload(64), newGen(3).payload(64)) {
		t.Error("seed 3 generates two different payloads")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram holds BENCHMARK.json to metricDefs: the
// same workloads, and every metric on the right list with the same unit,
// direction and bound.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "cmd/dtnbench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why = %q", w.Name, w.Why)
		}
	}
	if strings.Join(names, ",") != strings.Join(allWorkloads, ",") {
		t.Errorf("workloads = %v, want %v", names, allWorkloads)
	}

	listed := map[string]bool{}
	for _, e := range bf.EndToEnd {
		listed[e.Name] = true
		d, ok := findMetric(e.Name)
		if !ok || !d.driverEndToEnd() {
			t.Errorf("end_to_end lists %s, which the program does not report from every workload", e.Name)
			continue
		}
		if e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound || e.Bound > 0.25 {
			t.Errorf("end_to_end %s = %+v, program has %+v", e.Name, e, d)
		}
	}
	for _, e := range bf.PerLayer {
		listed[e.Name] = true
		d, ok := findMetric(e.Name)
		if !ok || d.driverEndToEnd() {
			t.Errorf("per_layer lists %s, which is not one of the program's layer metrics", e.Name)
			continue
		}
		if e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %s = %+v, program has %+v", e.Name, e, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if !listed[d.Name] {
			t.Errorf("BENCHMARK.json does not list %s", d.Name)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is duplicated or badly named", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	if !listed["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
}

// TestRunPrintsTheDriverLine drives run the way the benchmark driver does
// and checks the last line of standard output in both trace modes.
func TestRunPrintsTheDriverLine(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", wlDurable, "--seed", "5", "--seconds", "1", "--trace", trace, "-tmpdir", t.TempDir()}, &stdout, &stderr, 0.01)
		if code != 0 {
			t.Fatalf("exit %d: %s%s", code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line: %v", err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil {
			t.Errorf("last line has keys %v", line)
		}
		if string(line["correct"]) != "true" {
			t.Errorf("correct = %s", line["correct"])
		}
		var got map[string]Metric
		if err := json.Unmarshal(line["metrics"], &got); err != nil {
			t.Fatal(err)
		}
		var keys map[string]map[string]json.RawMessage
		if err := json.Unmarshal(line["metrics"], &keys); err != nil {
			t.Fatal(err)
		}
		for name, m := range keys {
			if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
				t.Errorf("-trace %s: metric %s has keys %v, want exactly value and unit", trace, name, m)
			}
		}
		for _, d := range metricDefs {
			_, ok := got[d.Name]
			if want := d.driverEndToEnd() == (trace == "0"); ok != want {
				t.Errorf("-trace %s: metric %s present=%v, want %v", trace, d.Name, ok, want)
			}
		}
		if trace == "1" && got["wal.fs_sync_us"].Value <= 0 {
			t.Errorf("wal.fs_sync_us = %v on durable-small", got["wal.fs_sync_us"].Value)
		}
		if trace == "1" && got["emu.trace_gen_s"].Value != 0 {
			t.Errorf("emu.trace_gen_s = %v on durable-small, want 0", got["emu.trace_gen_s"].Value)
		}
	}
}

// TestRunWritesReportAndCompares runs a set of two runs twice through the
// command line, then compares the two files.
func TestRunWritesReportAndCompares(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, out := range []string{a, b} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", wlBulk, "-runs", "2", "-seconds", "1", "-out", out, "-trace-out", filepath.Join(dir, "spans.jsonl"), "-tmpdir", dir}
		if code := run(args, &stdout, &stderr, 0.01); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
	}
	rep, err := readReport(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Seed+1 != rep.Runs[1].Seed {
		t.Errorf("report holds %d runs", len(rep.Runs))
	}
	env := rep.Env
	if env.GoVersion == "" || env.Kernel == "" || env.CPUModel == "" || env.NumCPU < 1 || env.GoMaxProcs < 1 ||
		env.Network != "loopback TCP" || env.WALFilesystem == "" || env.WALPolicy == "" || env.Seconds != 1 {
		t.Errorf("environment block incomplete: %+v", env)
	}
	if st, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("no spans file: %v", err)
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-compare", a, b}, &stdout, &stderr, 1)
	// Two quick sets on a busy machine may differ by more than a bound, so
	// only the shape is asserted: a row per metric of the workload, counts
	// unchanged.
	if code != 0 && code != 1 {
		t.Fatalf("compare exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"wire_bytes_per_item", "fail_ratio", "replica.apply_batch_us"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("compare output lacks a %s row:\n%s", want, stdout.String())
		}
	}
	if !regexp.MustCompile(`wire_bytes_per_item .* unchanged`).MatchString(stdout.String()) {
		t.Errorf("wire_bytes_per_item not unchanged:\n%s", stdout.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-compare", "only-one.json"},
		{"-compare", "missing-a.json", "missing-b.json"},
		{"-seconds", "0"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr, 0.01); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// report builds a one-workload report with the given values of one metric.
func report(metric string, values ...float64) *Report {
	r := &Report{}
	for _, v := range values {
		res := newResult(wlPair, Config{})
		res.Metrics.set(metric, v)
		r.Runs = append(r.Runs, res)
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, tc := range []struct {
		metric string
		a, b   []float64
		want   string
	}{
		{"encounter_p50_ms", steady, scaled(1.05), verdictUnchanged},
		{"encounter_p50_ms", steady, scaled(1.4), verdictRegressed},
		{"encounter_p50_ms", steady, scaled(0.6), verdictImproved},
		{"encounters_per_s", steady, scaled(0.6), verdictRegressed},
		{"encounters_per_s", steady, scaled(1.4), verdictImproved},
		{"encounter_p50_ms", noisy, noisy, verdictUnresolved},
		{"wire_bytes_per_item", []float64{1640}, []float64{1640}, verdictUnchanged},
		{"wire_bytes_per_item", []float64{1640}, []float64{1700}, verdictRegressed},
		{"fail_ratio", []float64{0}, []float64{0}, verdictUnchanged},
		{"fail_ratio", []float64{0}, []float64{0.001}, verdictRegressed},
		{"fail_ratio", []float64{0.01}, []float64{0}, verdictImproved},
		{"replica.handle_request_us", steady, scaled(3), verdictLayer},
	} {
		d, _ := findMetric(tc.metric)
		if got := judge(d, tc.a, tc.b); got.verdict != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.metric, tc.a[0], tc.b[0], got.verdict, tc.want)
		}
	}

	var out bytes.Buffer
	if !compareReports(&out, report("items_per_s", 1000), report("items_per_s", 500)) {
		t.Errorf("halved throughput not reported as a regression:\n%s", out.String())
	}
	if compareReports(&out, report("items_per_s", 1000), report("items_per_s", 1010)) {
		t.Error("1% more throughput reported as a regression")
	}
}

// TestSpreadMatchesPythonQuantiles pins spreadOf to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spreadOf(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadOf = %v, want %v", got, want)
	}
	if got := spreadOf([]float64{1, 2, 3}); got != 0 {
		t.Errorf("spread of three runs = %v, want 0", got)
	}
}

func TestDialBudget(t *testing.T) {
	var b dialBudget
	if err := b.take(20000); err != nil {
		t.Fatal(err)
	}
	if err := b.take(6000); err == nil {
		t.Error("26000 dials in one invocation accepted")
	}
	// The refusal reaches the caller before any encounter is dialed.
	full := dialBudget{used: maxDialsPerInvocation}
	if _, err := runWorkload(wlBulk, quick(t), &full); err == nil {
		t.Error("workload ran on an exhausted dial budget")
	}
}

// TestFailedChecksFailTheRun breaks the emulation's golden digest and the
// delivery accounting and expects both to surface as failures.
func TestFailedChecksFailTheRun(t *testing.T) {
	saved := goldenSmall
	goldenSmall = "0000"
	defer func() { goldenSmall = saved }()
	var dials dialBudget
	res, err := runWorkload(wlEmu, quick(t), &dials)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Metrics["fail_ratio"].Value <= 0 {
		t.Errorf("digest mismatch: correct=%v failed=%d", res.Correct, res.Failed)
	}

	p := &peer{}
	p.r = replica.New(replica.Config{ID: "lonely"})
	p.expected.Add(1)
	var failures []string
	if n := checkDeliveries([]*peer{p}, &failures); n != 2 || len(failures) != 1 {
		t.Errorf("undelivered message: %d checks, failures %v", n, failures)
	}
}

// TestUnreachableListenerCountsAsFailures closes a world's listener and runs
// a phase against it: every encounter must be counted as a failed dial, and
// none as a sample.
func TestUnreachableListenerCountsAsFailures(t *testing.T) {
	lw := liveTable()[2]
	if lw.name != wlBulk {
		t.Fatalf("liveTable()[2] is %s", lw.name)
	}
	w, err := lw.build(lw, quick(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	ph := runPhase(w, 5, time.Minute, nil,
		func() *recorder { return &recorder{} },
		func(rec *recorder) meetFunc { return rec.tcpMeet })
	if ph.failed != 5 || ph.dialErrors != 5 || len(ph.encounters) != 0 || ph.firstErr == nil {
		t.Errorf("failed=%d dialErrors=%d samples=%d firstErr=%v", ph.failed, ph.dialErrors, len(ph.encounters), ph.firstErr)
	}
	// A pass past its deadline stops and counts what it did not do.
	ph = runPhase(w, 5, -time.Second, nil,
		func() *recorder { return &recorder{} },
		func(rec *recorder) meetFunc { return rec.tcpMeet })
	if ph.failed != 5 {
		t.Errorf("expired pass: failed=%d, want 5", ph.failed)
	}
}

func TestFilesystemOf(t *testing.T) {
	if got := filesystemOf("/proc/self"); got != "proc" {
		t.Errorf("filesystemOf(/proc/self) = %q", got)
	}
	if firstLine("/no/such/file") != "unknown" {
		t.Error("missing file not reported as unknown")
	}
}
