package emu

import (
	"fmt"
	"strings"
	"testing"

	"replidtn/internal/fault"
	"replidtn/internal/mobility"
	"replidtn/internal/trace"
)

// scenarioTraces builds the differential-test inputs: the scaled-down
// DieselNet trace plus a small instance of each synthetic mobility model.
// Results are cached — trace generation dominates the suite otherwise.
var scenarioTraceCache = map[string]*trace.Trace{}

func scenarioTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	if len(scenarioTraceCache) > 0 {
		return scenarioTraceCache
	}
	scenarioTraceCache["dieselnet"] = miniTrace(t)
	for name, spec := range map[string]string{
		"rwp":       "rwp:n=16,days=2,seed=5,users=10,msgs=30,injectdays=2,spacing=250,active=7200",
		"community": "community:n=16,days=2,seed=5,users=10,msgs=30,injectdays=2,spacing=250,active=7200,cells=2,bias=0.9",
	} {
		tr, err := mobility.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		scenarioTraceCache[name] = tr
	}
	return scenarioTraceCache
}

// TestDifferentialSyncSummaries is the correctness gate for the compact
// knowledge summary protocol: with summaries enabled, every scenario, policy,
// and fault mode must reproduce the plain-protocol run exactly — the full
// delivery list, every original result counter, and the exact event log text.
// Summaries may only change what the knowledge frames cost, never what gets
// delivered, when, or how often.
func TestDifferentialSyncSummaries(t *testing.T) {
	traces := scenarioTraces(t)
	faultModes := []struct {
		name string
		cfg  fault.Config
	}{
		{"clean", fault.Config{}},
		{"faults", fault.Config{Seed: 9, Drop: 0.1, Cutoff: 0.15, CutoffItems: 2, Crash: 0.02}},
	}
	for _, scenario := range []string{"dieselnet", "rwp", "community"} {
		tr := traces[scenario]
		for _, name := range AllPolicies {
			for _, fm := range faultModes {
				t.Run(fmt.Sprintf("%s/%s/%s", scenario, name, fm.name), func(t *testing.T) {
					var plainLog, sumLog strings.Builder
					plain := runPolicy(t, tr, name, func(c *Config) {
						c.Faults = fm.cfg
						c.EventLog = &plainLog
					})
					sum := runPolicy(t, tr, name, func(c *Config) {
						c.Faults = fm.cfg
						c.SyncSummaries = true
						c.EventLog = &sumLog
					})
					assertSameDeliveryBehavior(t, plain, sum)
					if plainLog.String() != sumLog.String() {
						t.Errorf("summaries changed the event log:\n%s",
							firstLogDiff(plainLog.String(), sumLog.String()))
					}
				})
			}
		}
	}
}

// assertSameDeliveryBehavior compares a plain run against a summaries-enabled
// run: everything except the knowledge-frame accounting must be identical.
func assertSameDeliveryBehavior(t *testing.T, plain, sum *Result) {
	t.Helper()
	if sum.Duplicates != 0 {
		t.Errorf("summaries broke at-most-once: %d duplicates", sum.Duplicates)
	}
	cp, cs := counters(plain), counters(sum)
	// Indices 11 and 12 are KnowledgeBytes and SummaryFallbacks — the only
	// fields the summary protocol is allowed to change.
	cp[11], cs[11] = 0, 0
	cp[12], cs[12] = 0, 0
	if cp != cs {
		t.Errorf("summaries changed delivery results:\nplain     %+v\nsummaries %+v", cp, cs)
	}
	dp, ds := plain.Summary.Deliveries(), sum.Summary.Deliveries()
	if len(dp) != len(ds) {
		t.Fatalf("%d deliveries with summaries vs %d without", len(ds), len(dp))
	}
	for i := range dp {
		if dp[i] != ds[i] {
			t.Errorf("delivery %d differs: plain=%+v summaries=%+v", i, dp[i], ds[i])
		}
	}
}

// TestSyncSummariesShrinkKnowledgeTraffic is the perf smoke: on a workload
// with recurring contacts, delta knowledge should ship far fewer knowledge
// bytes than re-sending exact knowledge every sync.
func TestSyncSummariesShrinkKnowledgeTraffic(t *testing.T) {
	tr := miniTrace(t)
	plain := runPolicy(t, tr, PolicyEpidemic, nil)
	sum := runPolicy(t, tr, PolicyEpidemic, func(c *Config) { c.SyncSummaries = true })
	if plain.KnowledgeBytes == 0 {
		t.Fatal("plain run shipped no knowledge bytes")
	}
	if sum.KnowledgeBytes >= plain.KnowledgeBytes {
		t.Errorf("summaries did not shrink knowledge traffic: %d >= %d bytes",
			sum.KnowledgeBytes, plain.KnowledgeBytes)
	}
	t.Logf("knowledge bytes: plain=%d summaries=%d (%.1fx), fallbacks=%d",
		plain.KnowledgeBytes, sum.KnowledgeBytes,
		float64(plain.KnowledgeBytes)/float64(sum.KnowledgeBytes), sum.SummaryFallbacks)
}
