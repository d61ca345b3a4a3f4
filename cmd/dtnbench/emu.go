package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"replidtn/internal/emu"
	"replidtn/internal/experiment"
	"replidtn/internal/item"
	"replidtn/internal/metrics"
	"replidtn/internal/trace"
	"replidtn/internal/vclock"
)

// The golden digests pin the formatted Fig. 7(a), 9 and 10 tables — the
// repository's standing rule that experiment output stays byte-identical.
// emu_paper is the paper trace (trace.Default), emu_small the quick-mode
// trace (experiment.SmallTrace(1)).
var (
	//go:embed testdata/emu_paper.sha256
	goldenPaper string
	//go:embed testdata/emu_small.sha256
	goldenSmall string
)

// constraint is one of the evaluation's three resource settings.
type constraint struct {
	name          string // also the suffix of its emu.run_s.<name> metric
	title         string
	maxPerContact int
	relayCapacity int
}

var constraints = []constraint{
	{"unconstrained", "Fig. 7(a): delay CDF, first 12 hours (% delivered)", 0, 0},
	{"bandwidth", "Fig. 9: delay CDF under bandwidth constraint (1 msg/encounter)", 1, 0},
	{"storage", "Fig. 10: delay CDF under storage constraint (2 relayed msgs/node)", 0, 2},
}

// emuSecondsPerPass is the nominal length of one pass of 15 runs; a run of
// Seconds makes Seconds/emuSecondsPerPass passes, at least one.
const emuSecondsPerPass = 10

// emuTrace generates the workload's trace: the paper-calibrated one, or the
// small one in quick mode. The paper's evaluation has one input, pinned by
// the golden digest, so the seed does not vary it.
func emuTrace(cfg Config) (*trace.Trace, string, error) {
	if cfg.scale > 0 && cfg.scale < 1 {
		tr, err := experiment.SmallTrace(1)
		return tr, goldenSmall, err
	}
	tr, err := trace.Default()
	return tr, goldenPaper, err
}

// runEmu runs the paper emulation: emu.Run on the sequential engine, one
// call at a time, for each of emu.AllPolicies under each constraint.
func runEmu(cfg Config) (*Result, error) {
	res := newResult(wlEmu, cfg)
	m := res.Metrics

	// Set-up is what precedes the first measured run: generate the trace,
	// then one warm-up run of the basic substrate, as the live workloads'
	// set-up ends with warm-up encounters.
	ref, err := newHostRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var tr *trace.Trace
	var golden string
	var genTimes []float64
	setup, reps, err := repeatSetup(cfg, ref, func() error {
		start := time.Now()
		var err error
		if tr, golden, err = emuTrace(cfg); err != nil {
			return err
		}
		genTimes = append(genTimes, time.Since(start).Seconds())
		_, err = emu.Run(emu.Config{Trace: tr})
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", wlEmu, err)
	}
	m.setN("emu.trace_gen_s", medianFloat(genTimes), reps)

	passes := cfg.Seconds / emuSecondsPerPass
	if passes < 1 {
		passes = 1
	}
	var spans *tracer
	if cfg.Traced {
		spans = newTracer(passes * len(constraints) * len(emu.AllPolicies))
	}

	var (
		encounters, syncs, items, duplicates int
		bytes                                int64
		perEncounter                         []time.Duration // one per run
		byPolicy                             = map[emu.PolicyName][]float64{}
		byConstraint                         = map[string][]float64{}
		digests                              []string
	)
	cpu0 := cpuTime()
	start := time.Now()
	refSpent := ref.spent
	for pass := 0; pass < passes; pass++ {
		var tables strings.Builder
		policySeconds := map[emu.PolicyName]float64{}
		for _, c := range constraints {
			sweep := &experiment.PolicySweep{
				MaxMessagesPerEncounter: c.maxPerContact, RelayCapacity: c.relayCapacity,
				Results: map[emu.PolicyName]*emu.Result{},
			}
			var constraintSeconds float64
			for _, policy := range emu.AllPolicies {
				res.Attempted++
				ref.read(refEmuReadMB)
				runStart := time.Now()
				var s int32 = -1
				if spans != nil {
					spans.encounter++
					s = spans.begin(spanEmuRun)
				}
				out, err := emu.Run(emu.Config{
					Trace:                   tr,
					Policy:                  emu.Factory(policy, emu.DefaultParams()),
					MaxMessagesPerEncounter: c.maxPerContact,
					RelayCapacity:           c.relayCapacity,
				})
				if spans != nil {
					spans.end(s)
				}
				took := time.Since(runStart)
				if err != nil {
					return nil, fmt.Errorf("%s: %s/%s: %w", wlEmu, policy, c.name, err)
				}
				sweep.Results[policy] = out
				encounters += out.Encounters
				syncs += out.Syncs
				items += out.ItemsTransferred
				bytes += out.BytesTransferred + out.KnowledgeBytes
				duplicates += out.Duplicates
				perEncounter = append(perEncounter, took/time.Duration(out.Encounters))
				policySeconds[policy] += took.Seconds()
				constraintSeconds += took.Seconds()
			}
			byConstraint[c.name] = append(byConstraint[c.name], constraintSeconds)
			fmt.Fprintf(&tables, "%s\n%s", c.title, metrics.FormatTable("hours", sweep.CDFHours(12)))
		}
		for policy, s := range policySeconds {
			byPolicy[policy] = append(byPolicy[policy], s)
		}
		sum := sha256.Sum256([]byte(tables.String()))
		digests = append(digests, hex.EncodeToString(sum[:]))
	}
	wall := time.Since(start) - (ref.spent - refSpent)
	cpu := cpuTime() - cpu0 - (ref.spent - refSpent)
	heap := liveHeapMB()

	res.Attempted += 2
	if duplicates != 0 {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("%d duplicate receipts across the emulated runs", duplicates))
	}
	want := strings.TrimSpace(golden)
	for pass, got := range digests {
		if got != want {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("pass %d: Fig. 7(a)/9/10 tables hash to %s, golden is %s", pass+1, got, want))
			break
		}
	}

	runs := len(perEncounter)
	res.Counts["passes"] = passes
	res.Counts["emu_runs"] = runs
	res.Counts["encounter_samples"] = runs
	res.Counts["encounters"] = encounters
	res.Counts["items_applied"] = items
	sortDurations(perEncounter)
	n := float64(encounters)
	slow := ref.slowdown()
	m.setN("host.stream_us_per_mb", ref.microsPerMB(), ref.reads)
	m.setScaled("setup_s", setup, reps, 1/slow)
	m.setScaled("encounters_per_s", n/wall.Seconds(), 0, slow)
	m.set("emu_encounters_per_s", m["encounters_per_s"].Value)
	m.setScaled("items_per_s", float64(items)/wall.Seconds(), 0, slow)
	m.setScaled("encounter_p50_ms", millis(percentile(perEncounter, 50)), runs, 1/slow)
	m.setScaled("encounter_p95_ms", millis(percentile(perEncounter, 95)), runs, 1/slow)
	m.set("wire_bytes_per_item", float64(bytes)/float64(items))
	m.setScaled("cpu_ms_per_encounter", millis(cpu)/n, 0, 1/slow)
	m.set("heap_live_mb", heap)
	m.set("replica.duplicates", float64(duplicates))
	m.set("emu.syncs_per_s", float64(syncs)/wall.Seconds())
	m.set("emu.items_transferred", float64(items)/float64(passes))
	for policy, s := range byPolicy {
		m.setN("routing."+string(policy)+".emu_run_s", medianFloat(s), len(s))
	}
	for _, c := range constraints {
		m.setN("emu.run_s."+c.name, medianFloat(byConstraint[c.name]), passes)
	}
	probeItems, probeKnow := emuItems(tr)
	probeStructures(probeItems, probeKnow, m)
	if spans != nil && cfg.TraceOut != nil {
		if err := spans.writeSpans(cfg.TraceOut, wlEmu); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// emuItems builds the standalone structures the store and vclock probes
// time at this workload's size: one item per trace message, created by the
// buses in turn, and the knowledge of a node that has seen them all.
func emuItems(tr *trace.Trace) ([]*item.Item, *vclock.Knowledge) {
	buses := append([]string(nil), tr.Buses...)
	sort.Strings(buses)
	know := vclock.NewKnowledge()
	seq := map[string]uint64{}
	items := make([]*item.Item, len(tr.Messages))
	for i := range tr.Messages {
		bus := buses[i%len(buses)]
		seq[bus]++
		v := vclock.Version{Replica: vclock.ReplicaID(bus), Seq: seq[bus]}
		know.Add(v)
		items[i] = &item.Item{ID: item.ID{Creator: v.Replica, Num: v.Seq}, Version: v}
	}
	return items, know
}
