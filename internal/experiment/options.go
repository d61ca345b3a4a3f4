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

// Option adjusts how experiment drivers execute their emulation runs.
// WithObs and WithSyncSummaries leave delivery results bit-identical;
// WithFaults deliberately perturbs the emulated network and therefore the
// results, but keeps them a deterministic function of the fault config.
type Option func(*options)

type options struct {
	faults    fault.Config
	obs       *obs.NodeMetrics
	summaries bool
}

// WithFaults injects deterministic encounter faults (dropped contacts,
// mid-sync cutoffs, crash-restarts) into every emulation run in the driver.
// The zero config is a no-op.
func WithFaults(cfg fault.Config) Option {
	return func(o *options) {
		o.faults = cfg
	}
}

// WithObs aggregates replica and store observability counters from every
// node of every emulation run in the driver into n's Replica and Store
// sections (see emu.Config.Metrics). Counter updates are atomic, so
// instrumented runs stay bit-identical in their results; nil is a no-op,
// leaving instrumentation off.
func WithObs(n *obs.NodeMetrics) Option {
	return func(o *options) {
		o.obs = n
	}
}

// WithSyncSummaries(true) enables the compact knowledge summary protocol
// (delta knowledge for recurring peers) on every node of every emulation run
// in the driver. Delivery results are bit-identical with or without it —
// summaries only shrink the knowledge-frame traffic that the sweeps'
// bytes/enc columns report.
func WithSyncSummaries(on bool) Option {
	return func(o *options) {
		o.summaries = on
	}
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// instrument attaches the driver's observability sinks, if any, to one run
// config. Every emu.Run call in this package goes through it.
func (o options) instrument(cfg emu.Config) emu.Config {
	if o.obs != nil {
		cfg.Metrics = &o.obs.Replica
		cfg.StoreMetrics = &o.obs.Store
	}
	if o.summaries {
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
func (o options) runAll(what string, jobs []job) ([]*emu.Result, error) {
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
				results[i], errs[i] = emu.Run(o.instrument(jobs[i].cfg))
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
