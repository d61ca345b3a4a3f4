package experiment

import (
	"fmt"
	"strings"

	"replidtn/internal/emu"
	"replidtn/internal/item"
	"replidtn/internal/store"
	"replidtn/internal/trace"
)

// An Ablation probes one design choice behind the paper's fixed Table II
// parameters or its FIFO eviction: how sensitive are the results to the
// epidemic TTL, the spray copy allowance, the MaxProp hop threshold, the
// per-encounter budgets, the relay storage capacity, the message lifetime
// and the relay eviction strategy? Each swept value is one emulation run and
// one row of the ablation's table.
type Ablation struct {
	// Name selects the ablation (dtnsim -experiment NAME); Title heads its
	// table.
	Name, Title string
	// Values are the values swept when RunAblation is given none.
	Values []int64
	// Label names the row of one value (e.g. "ttl=4").
	Label func(v int64) string
	// Edit sets one value on its run's config, which starts as epidemic
	// routing with Table II's parameters.
	Edit func(cfg *emu.Config, v int64)
}

// Ablations is the ablation table, in dtnsim's index order.
var Ablations = []Ablation{
	{"ablation-ttl", "Ablation: epidemic TTL", []int64{1, 2, 4, 10, 20}, count("ttl"),
		func(cfg *emu.Config, v int64) {
			cfg.Policy = tuned(emu.PolicyEpidemic, func(p *emu.Params) { p.EpidemicTTL = float64(v) })
		}},
	{"ablation-copies", "Ablation: spray copy allowance", []int64{2, 4, 8, 16, 32}, count("copies"),
		func(cfg *emu.Config, v int64) {
			cfg.Policy = tuned(emu.PolicySpray, func(p *emu.Params) { p.SprayCopies = int(v) })
		}},
	// Transmission order is what distinguishes MaxProp from plain flooding,
	// so its threshold is swept under the bandwidth constraint.
	{"ablation-threshold", "Ablation: MaxProp hop threshold (1 msg/encounter)", []int64{1, 3, 5, 10}, count("threshold"),
		func(cfg *emu.Config, v int64) {
			cfg.Policy = tuned(emu.PolicyMaxProp, func(p *emu.Params) { p.MaxPropHopThreshold = int(v) })
			cfg.MaxMessagesPerEncounter = 1
		}},
	// The message budget bridges the paper's two extremes (Fig. 7 vs. Fig. 9).
	{"ablation-bandwidth", "Ablation: per-encounter budget (epidemic)", []int64{1, 2, 4, 8, 0}, limit("budget", 1, ""),
		func(cfg *emu.Config, v int64) { cfg.MaxMessagesPerEncounter = int(v) }},
	// The byte budget is the finer-grained version of the one-message
	// constraint.
	{"ablation-bytes", "Ablation: per-encounter byte budget (epidemic, 1KiB msgs)", []int64{2 << 10, 8 << 10, 32 << 10, 0}, limit("bytes", 1<<10, "KiB"),
		func(cfg *emu.Config, v int64) { cfg.MaxBytesPerEncounter, cfg.MessageSize = v, 1<<10 }},
	// The relay capacity bridges Fig. 7 and Fig. 10.
	{"ablation-storage", "Ablation: relay capacity (epidemic)", []int64{1, 2, 4, 8, 0}, limit("capacity", 1, ""),
		func(cfg *emu.Config, v int64) { cfg.RelayCapacity = int(v) }},
	// Expired messages stop consuming encounter bandwidth, at the price of
	// undelivered deadline misses.
	{"ablation-lifetime", "Ablation: bounded message lifetime (epidemic)", []int64{6 * 3600, 12 * 3600, 24 * 3600, 0}, limit("lifetime", 3600, "h"),
		func(cfg *emu.Config, v int64) { cfg.MessageLifetime = v }},
	// The values index evictions.
	{"ablation-eviction", "Ablation: relay eviction strategy (capacity 2)", []int64{0, 1, 2, 3},
		func(v int64) string { return fmt.Sprintf("%s/%s", evictions[v].policy, evictions[v].strategy.Name()) },
		func(cfg *emu.Config, v int64) {
			cfg.Policy = emu.Factory(evictions[v].policy, emu.DefaultParams())
			cfg.RelayCapacity, cfg.Eviction = 2, evictions[v].strategy
		}},
}

// evictions compares the paper's FIFO with MaxProp-style drop-highest-
// hop-count under the Fig. 10 storage constraint.
var evictions = []struct {
	policy   emu.PolicyName
	strategy store.EvictionStrategy
}{
	{emu.PolicyEpidemic, store.FIFO{}},
	{emu.PolicyEpidemic, store.EvictByCost{Field: item.FieldHops}},
	{emu.PolicyMaxProp, store.FIFO{}},
	{emu.PolicyMaxProp, store.EvictByCost{Field: item.FieldHops}},
}

// tuned is the named policy with Table II's parameters as tune sets them.
func tuned(name emu.PolicyName, tune func(*emu.Params)) emu.PolicyFactory {
	p := emu.DefaultParams()
	tune(&p)
	return emu.Factory(name, p)
}

// count labels a value as key=v.
func count(key string) func(int64) string {
	return func(v int64) string { return fmt.Sprintf("%s=%d", key, v) }
}

// limit labels a limit as key=v in units of unit, named by suffix; 0 is no
// limit, labelled key=inf.
func limit(key string, unit int64, suffix string) func(int64) string {
	return func(v int64) string {
		if v == 0 {
			return key + "=inf"
		}
		return fmt.Sprintf("%s=%d%s", key, v/unit, suffix)
	}
}

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

// RunAblation runs one row per value of a on the run pool; nil values sweep
// a.Values.
func RunAblation(tr *trace.Trace, a Ablation, values []int64, s Settings) ([]AblationRow, error) {
	if len(values) == 0 {
		values = a.Values
	}
	jobs := make([]job, len(values))
	for i, v := range values {
		jobs[i] = job{a.Label(v), emu.Config{Trace: tr, Policy: emu.Factory(emu.PolicyEpidemic, emu.DefaultParams())}}
		a.Edit(&jobs[i].cfg, v)
	}
	results, err := s.runAll("ablation", jobs)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(jobs))
	for i, res := range results {
		rows[i] = AblationRow{
			Setting:          jobs[i].label,
			Delivered12h:     res.Summary.DeliveredWithin(Deadline12h),
			MeanDelayHours:   res.Summary.MeanDelayHours(),
			CopiesAtEnd:      res.Summary.MeanCopiesAtEnd(),
			ItemsTransferred: res.ItemsTransferred,
		}
	}
	return rows, nil
}

// FormatAblation renders ablation rows as an aligned table under its column
// headings.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s%12s%14s%14s%12s\n",
		"setting", "12h deliv", "mean delay", "end copies", "traffic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s%11.1f%%%13.1fh%14.2f%12d\n",
			r.Setting, r.Delivered12h*100, r.MeanDelayHours, r.CopiesAtEnd, r.ItemsTransferred)
	}
	return b.String()
}
