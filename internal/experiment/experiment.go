// Package experiment reproduces the paper's evaluation (§VI). Its index
// (index.go) is the one list of experiments: each entry names the sweep of
// emulation runs it reads, its title and how it renders, and Run renders one
// entry by name, or with "all" the paper's tables and figures in order, each
// sweep run once. The eight ablations are rows of one table (Ablations),
// run by RunAblation. Settings carry the run settings — faults, the
// observability sink and the summary protocol — to every run.
package experiment

import (
	"fmt"
	"strings"

	"replidtn/internal/emu"
	"replidtn/internal/metrics"
	"replidtn/internal/trace"
)

// FilterKs are the filter sizes swept in Figs. 5 and 6 (k = 0 is the basic
// substrate, labeled "Self" in the paper).
var FilterKs = []int{0, 1, 2, 4, 8, 16}

// Deadline12h is the bounded-lifetime deadline used throughout (§VI.B picks
// 12 hours because buses return to the shed about 12 hours after injection).
const Deadline12h = 12 * 3600

// FilterSweep holds the Fig. 5/6 emulation results: one run per strategy and
// filter size.
type FilterSweep struct {
	Ks       []int
	Random   map[int]*emu.Result
	Selected map[int]*emu.Result
}

// RunFilterSweep executes the multi-address filter experiments on the basic
// substrate, one run per (strategy, k) on the run pool; the k = 0 run is
// shared between the strategies.
func RunFilterSweep(tr *trace.Trace, ks []int, s Settings) (*FilterSweep, error) {
	if len(ks) == 0 {
		ks = FilterKs
	}
	var jobs []job
	for _, k := range ks {
		jobs = append(jobs, job{fmt.Sprintf("random k=%d", k), emu.Config{
			Trace: tr, ExtraBuses: emu.RandomExtraBuses(tr, k, 11),
		}})
		if k != 0 {
			jobs = append(jobs, job{fmt.Sprintf("selected k=%d", k), emu.Config{
				Trace: tr, ExtraBuses: emu.SelectedExtraBuses(tr, k),
			}})
		}
	}
	results, err := s.runAll("filters", jobs)
	if err != nil {
		return nil, err
	}
	fs := &FilterSweep{
		Ks:       ks,
		Random:   make(map[int]*emu.Result, len(ks)),
		Selected: make(map[int]*emu.Result, len(ks)),
	}
	for _, k := range ks {
		// k = 0 is the basic substrate: one run serves both strategies.
		fs.Random[k], fs.Selected[k] = results[0], results[0]
		results = results[1:]
		if k != 0 {
			fs.Selected[k], results = results[0], results[1:]
		}
	}
	return fs, nil
}

// series returns the random and the selected strategy's y over the swept
// filter sizes.
func (fs *FilterSweep) series(y func(*emu.Result) float64) []metrics.Series {
	xs := make([]float64, len(fs.Ks))
	random := make([]float64, len(fs.Ks))
	selected := make([]float64, len(fs.Ks))
	for i, k := range fs.Ks {
		xs[i] = float64(k)
		random[i] = y(fs.Random[k])
		selected[i] = y(fs.Selected[k])
	}
	return []metrics.Series{
		{Label: "random", X: xs, Y: random},
		{Label: "selected", X: xs, Y: selected},
	}
}

// Fig5 returns the mean message delay (hours) for each strategy and filter
// size.
func (fs *FilterSweep) Fig5() []metrics.Series {
	return fs.series(func(r *emu.Result) float64 { return r.Summary.MeanDelayHours() })
}

// Fig6 returns the percentage of messages delivered within 12 hours for each
// strategy and filter size.
func (fs *FilterSweep) Fig6() []metrics.Series {
	return fs.series(func(r *emu.Result) float64 { return r.Summary.DeliveredWithin(Deadline12h) * 100 })
}

// KnowledgePerEncounter returns the mean knowledge-frame bytes shipped per
// encounter for each strategy and filter size — the sync-metadata overhead
// the compact summary protocol (Settings.Summaries) shrinks. Comparing this
// series between a plain and a summaries-enabled sweep is the filter-sweep
// bytes-per-encounter ablation.
func (fs *FilterSweep) KnowledgePerEncounter() []metrics.Series {
	return fs.series(knowledgePerEncounter)
}

// PolicySweep holds one emulation result per routing configuration under a
// common constraint setting.
type PolicySweep struct {
	// MaxMessagesPerEncounter and RelayCapacity echo the constraints used.
	MaxMessagesPerEncounter int
	RelayCapacity           int
	Results                 map[emu.PolicyName]*emu.Result
}

// RunPolicySweep executes one emulation per routing configuration on the run
// pool.
func RunPolicySweep(tr *trace.Trace, params emu.Params, maxPerEncounter, relayCapacity int, s Settings) (*PolicySweep, error) {
	jobs := make([]job, len(emu.AllPolicies))
	for i, name := range emu.AllPolicies {
		jobs[i] = job{string(name), emu.Config{
			Trace:                   tr,
			Policy:                  emu.Factory(name, params),
			MaxMessagesPerEncounter: maxPerEncounter,
			RelayCapacity:           relayCapacity,
		}}
	}
	results, err := s.runAll("policy", jobs)
	if err != nil {
		return nil, err
	}
	ps := &PolicySweep{
		MaxMessagesPerEncounter: maxPerEncounter,
		RelayCapacity:           relayCapacity,
		Results:                 make(map[emu.PolicyName]*emu.Result, len(emu.AllPolicies)),
	}
	for i, name := range emu.AllPolicies {
		ps.Results[name] = results[i]
	}
	return ps, nil
}

// CDFHours returns per-policy delay CDFs over hourly bounds 1..hours — the
// Fig. 7(a), Fig. 9, and Fig. 10 series.
func (ps *PolicySweep) CDFHours(hours int) []metrics.Series {
	return ps.cdf(metrics.HourBounds(hours), 3600)
}

// CDFDays returns per-policy delay CDFs over daily bounds 1..days — the
// Fig. 7(b) series.
func (ps *PolicySweep) CDFDays(days int) []metrics.Series {
	return ps.cdf(metrics.DayBounds(days), 24*3600)
}

// cdf returns per-policy delay CDFs at bounds, in seconds, plotted in units
// of unit seconds.
func (ps *PolicySweep) cdf(bounds []int64, unit float64) []metrics.Series {
	xs := make([]float64, len(bounds))
	for i, b := range bounds {
		xs[i] = float64(b) / unit
	}
	out := make([]metrics.Series, 0, len(emu.AllPolicies))
	for _, name := range emu.AllPolicies {
		out = append(out, metrics.Series{
			Label: string(name),
			X:     xs,
			Y:     ps.Results[name].Summary.CDF(bounds),
		})
	}
	return out
}

// Fig8Row is one policy's stored-copy accounting.
type Fig8Row struct {
	Policy           emu.PolicyName
	CopiesAtDelivery float64
	CopiesAtEnd      float64
}

// Fig8 returns the average stored copies per message for every policy.
func (ps *PolicySweep) Fig8() []Fig8Row {
	out := make([]Fig8Row, 0, len(emu.AllPolicies))
	for _, name := range emu.AllPolicies {
		s := ps.Results[name].Summary
		out = append(out, Fig8Row{
			Policy:           name,
			CopiesAtDelivery: s.MeanCopiesAtDelivery(),
			CopiesAtEnd:      s.MeanCopiesAtEnd(),
		})
	}
	return out
}

// FormatFig8 renders the Fig. 8 rows.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s%22s%18s\n", "policy", "copies at delivery", "copies at end")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s%22.2f%18.2f\n", r.Policy, r.CopiesAtDelivery, r.CopiesAtEnd)
	}
	return b.String()
}
