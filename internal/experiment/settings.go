package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"replidtn/internal/emu"
	"replidtn/internal/fault"
	"replidtn/internal/obs"
)

// Settings are the run settings every emulation run of an experiment gets.
// The zero value runs the fault-free, uninstrumented evaluation. Obs and
// Summaries leave delivery results bit-identical; Faults deliberately
// perturbs the emulated network and therefore the results, but keeps them a
// deterministic function of the fault config.
type Settings struct {
	// Faults injects deterministic encounter faults (dropped contacts,
	// mid-sync cutoffs, crash-restarts) into every run. The fault sweep
	// injects its own grid instead and takes only the Seed from here.
	Faults fault.Config
	// Obs, when set, aggregates replica and store observability counters
	// from every node of every run into its Replica and Store sections (see
	// emu.Config.Metrics). Counter updates are atomic, so instrumented runs
	// stay bit-identical in their results.
	Obs *obs.NodeMetrics
	// Summaries enables the compact knowledge summary protocol (delta
	// knowledge for recurring peers) on every node of every run. It only
	// shrinks the knowledge-frame traffic that the bytes/enc columns report.
	Summaries bool
}

// apply gives one run's config the settings. Every emu.Run call in this
// package goes through it.
func (s Settings) apply(cfg emu.Config) emu.Config {
	if s.Faults.Enabled() {
		cfg.Faults = s.Faults
	}
	if s.Obs != nil {
		cfg.Metrics = &s.Obs.Replica
		cfg.StoreMetrics = &s.Obs.Store
	}
	if s.Summaries {
		cfg.SyncSummaries = true
	}
	return cfg
}

// job is one emulation run a driver submits to runAll, with the label its
// error is reported under.
type job struct {
	label string
	cfg   emu.Config
}

// runAll is the run pool every driver goes through. Emulation runs are
// independent and deterministic, so it executes them on
// min(GOMAXPROCS, len(jobs)) goroutines that pull indexes from a shared
// counter, and returns the results by index: output order never depends on
// scheduling. If any run fails, the error is that of the lowest failing
// index, labelled "experiment: <what> <label>".
func (s Settings) runAll(what string, jobs []job) ([]*emu.Result, error) {
	results := make([]*emu.Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i], errs[i] = emu.Run(s.apply(jobs[i].cfg))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: %s %s: %w", what, jobs[i].label, err)
		}
	}
	return results, nil
}
