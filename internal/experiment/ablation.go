package experiment

import (
	"fmt"
	"strings"

	"replidtn/internal/emu"
	"replidtn/internal/item"
	"replidtn/internal/store"
	"replidtn/internal/trace"
)

// Ablations probe the design choices behind the paper's fixed Table II
// parameters and its FIFO eviction choice: how sensitive are the results to
// the epidemic TTL, the spray copy allowance, the MaxProp hop threshold, the
// per-encounter bandwidth budget, the relay storage capacity, and the relay
// eviction strategy?

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	// Setting describes the swept value (e.g. "ttl=4").
	Setting string
	// Delivered12h is the fraction of messages delivered within 12 hours.
	Delivered12h float64
	// MeanDelayHours is the mean delivery delay.
	MeanDelayHours float64
	// CopiesAtEnd is the mean stored copies per message at the end.
	CopiesAtEnd float64
	// ItemsTransferred is total sync traffic.
	ItemsTransferred int
}

func rowFrom(setting string, res *emu.Result) AblationRow {
	return AblationRow{
		Setting:          setting,
		Delivered12h:     res.Summary.DeliveredWithin(Deadline12h),
		MeanDelayHours:   res.Summary.MeanDelayHours(),
		CopiesAtEnd:      res.Summary.MeanCopiesAtEnd(),
		ItemsTransferred: res.ItemsTransferred,
	}
}

// FormatAblation renders ablation rows as an aligned table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-18s%12s%14s%14s%12s\n", title,
		"setting", "12h deliv", "mean delay", "end copies", "traffic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s%11.1f%%%13.1fh%14.2f%12d\n",
			r.Setting, r.Delivered12h*100, r.MeanDelayHours, r.CopiesAtEnd, r.ItemsTransferred)
	}
	return b.String()
}

// ablate runs one ablation sweep's jobs on the run pool and turns each result
// into a row labelled with its job's setting.
func (o options) ablate(jobs []job) ([]AblationRow, error) {
	results, err := o.runAll("ablation", jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(jobs))
	for i, res := range results {
		rows[i] = rowFrom(jobs[i].label, res)
	}
	return rows, nil
}

// AblationEpidemicTTL sweeps the epidemic hop budget.
func AblationEpidemicTTL(tr *trace.Trace, ttls []int, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(ttls) == 0 {
		ttls = []int{1, 2, 4, 10, 20}
	}
	jobs := make([]job, len(ttls))
	for i, ttl := range ttls {
		params := emu.DefaultParams()
		params.EpidemicTTL = float64(ttl)
		jobs[i] = job{fmt.Sprintf("ttl=%d", ttl), emu.Config{
			Trace: tr, Policy: emu.Factory(emu.PolicyEpidemic, params), Faults: o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationSprayCopies sweeps the spray allowance.
func AblationSprayCopies(tr *trace.Trace, copies []int, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(copies) == 0 {
		copies = []int{2, 4, 8, 16, 32}
	}
	jobs := make([]job, len(copies))
	for i, c := range copies {
		params := emu.DefaultParams()
		params.SprayCopies = c
		jobs[i] = job{fmt.Sprintf("copies=%d", c), emu.Config{
			Trace: tr, Policy: emu.Factory(emu.PolicySpray, params), Faults: o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationMaxPropThreshold sweeps the hop-count priority threshold under the
// bandwidth constraint, where transmission order is what distinguishes
// MaxProp from plain flooding.
func AblationMaxPropThreshold(tr *trace.Trace, thresholds []int, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(thresholds) == 0 {
		thresholds = []int{1, 3, 5, 10}
	}
	jobs := make([]job, len(thresholds))
	for i, th := range thresholds {
		params := emu.DefaultParams()
		params.MaxPropHopThreshold = th
		jobs[i] = job{fmt.Sprintf("threshold=%d", th), emu.Config{
			Trace:                   tr,
			Policy:                  emu.Factory(emu.PolicyMaxProp, params),
			MaxMessagesPerEncounter: 1,
			Faults:                  o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationBandwidth sweeps the per-encounter message budget for epidemic
// routing (0 = unlimited), bridging the paper's two extremes (Fig. 7 vs.
// Fig. 9).
func AblationBandwidth(tr *trace.Trace, budgets []int, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(budgets) == 0 {
		budgets = []int{1, 2, 4, 8, 0}
	}
	jobs := make([]job, len(budgets))
	for i, budget := range budgets {
		setting := fmt.Sprintf("budget=%d", budget)
		if budget == 0 {
			setting = "budget=inf"
		}
		jobs[i] = job{setting, emu.Config{
			Trace:                   tr,
			Policy:                  emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
			MaxMessagesPerEncounter: budget,
			Faults:                  o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationStorage sweeps the relay capacity for epidemic routing (0 =
// unlimited), bridging Fig. 7 and Fig. 10.
func AblationStorage(tr *trace.Trace, caps []int, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(caps) == 0 {
		caps = []int{1, 2, 4, 8, 0}
	}
	jobs := make([]job, len(caps))
	for i, capacity := range caps {
		setting := fmt.Sprintf("capacity=%d", capacity)
		if capacity == 0 {
			setting = "capacity=inf"
		}
		jobs[i] = job{setting, emu.Config{
			Trace:         tr,
			Policy:        emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
			RelayCapacity: capacity,
			Faults:        o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationByteBudget sweeps a byte-granular per-encounter bandwidth budget
// for epidemic routing with 1 KiB messages (0 = unlimited) — the
// finer-grained version of the paper's one-message constraint.
func AblationByteBudget(tr *trace.Trace, budgets []int64, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(budgets) == 0 {
		budgets = []int64{2 << 10, 8 << 10, 32 << 10, 0}
	}
	const messageSize = 1 << 10
	jobs := make([]job, len(budgets))
	for i, budget := range budgets {
		setting := fmt.Sprintf("bytes=%dKiB", budget>>10)
		if budget == 0 {
			setting = "bytes=inf"
		}
		jobs[i] = job{setting, emu.Config{
			Trace:                tr,
			Policy:               emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
			MaxBytesPerEncounter: budget,
			MessageSize:          messageSize,
			Faults:               o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationLifetime sweeps bounded message lifetimes for epidemic routing
// (0 = unlimited): expired messages stop consuming encounter bandwidth, at
// the price of undelivered deadline misses.
func AblationLifetime(tr *trace.Trace, lifetimes []int64, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	if len(lifetimes) == 0 {
		lifetimes = []int64{6 * 3600, 12 * 3600, 24 * 3600, 0}
	}
	jobs := make([]job, len(lifetimes))
	for i, lt := range lifetimes {
		setting := fmt.Sprintf("lifetime=%dh", lt/3600)
		if lt == 0 {
			setting = "lifetime=inf"
		}
		jobs[i] = job{setting, emu.Config{
			Trace:           tr,
			Policy:          emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
			MessageLifetime: lt,
			Faults:          o.faults,
		}}
	}
	return o.ablate(jobs)
}

// AblationEviction compares relay-eviction strategies under the Fig. 10
// storage constraint: the paper's FIFO versus MaxProp-style drop-highest-
// hop-count.
func AblationEviction(tr *trace.Trace, opts ...Option) ([]AblationRow, error) {
	o := buildOptions(opts)
	strategies := []store.EvictionStrategy{
		store.FIFO{},
		store.EvictByCost{Field: item.FieldHops},
	}
	var jobs []job
	for _, name := range []emu.PolicyName{emu.PolicyEpidemic, emu.PolicyMaxProp} {
		for _, ev := range strategies {
			jobs = append(jobs, job{fmt.Sprintf("%s/%s", name, ev.Name()), emu.Config{
				Trace:         tr,
				Policy:        emu.Factory(name, emu.DefaultParams()),
				RelayCapacity: 2,
				Eviction:      ev,
				Faults:        o.faults,
			}})
		}
	}
	return o.ablate(jobs)
}
