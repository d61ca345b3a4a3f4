package experiment

import (
	"fmt"
	"strings"

	"replidtn/internal/emu"
	"replidtn/internal/fault"
	"replidtn/internal/trace"
)

// The fault sweep quantifies what the paper assumes qualitatively: DTN
// routing must tolerate disrupted contacts. Each row reruns a policy with a
// deterministic dose of dropped encounters or mid-sync cutoffs and reports
// how delivery rate and delay degrade.

// DefaultFaultDrops are the encounter drop probabilities swept.
var DefaultFaultDrops = []float64{0, 0.1, 0.3, 0.5}

// DefaultFaultCutoffs are the mid-sync cutoff item budgets swept (each with
// cutoff probability 0.3 — probabilistic, so repeated encounters eventually
// complete the exchange and the sweep cannot livelock).
var DefaultFaultCutoffs = []int{1, 2, 4}

// faultCutoffProb is the per-encounter cutoff probability used in the cutoff
// budget sweep. Deliberately < 1: a link that is *always* severed after a
// fixed budget can freeze progress entirely, because an aborted batch leaves
// knowledge untouched and is re-offered whole at the next contact.
const faultCutoffProb = 0.3

// FaultRow is one (policy, fault setting) outcome in the sweep.
type FaultRow struct {
	Policy emu.PolicyName
	// Setting describes the injected fault (e.g. "drop=0.30").
	Setting string
	// Delivered is the fraction of messages delivered by the end of the run.
	Delivered float64
	// Delivered12h is the fraction delivered within the 12-hour deadline.
	Delivered12h float64
	// MeanDelayHours is the mean delivery delay.
	MeanDelayHours float64
	// EncountersDropped, SyncsAborted, and ItemsWasted report the faults that
	// actually fired and the transfer volume they destroyed.
	EncountersDropped int
	SyncsAborted      int
	ItemsWasted       int
	// KnowledgeBytesPerEnc is the mean knowledge-frame volume shipped per
	// encounter — the sync-metadata cost the summary protocol
	// (Settings.Summaries) shrinks.
	KnowledgeBytesPerEnc float64
}

// RunFaultSweep reruns every routing policy under swept encounter-drop
// probabilities and mid-sync cutoff budgets. The grid replaces s.Faults, all
// of it driven by s.Faults.Seed. Nil drops/cutoffs select the defaults. The
// runs go through the run pool; rows come back grouped by policy, drops
// before cutoffs, in sweep order.
func RunFaultSweep(tr *trace.Trace, drops []float64, cutoffs []int, s Settings) ([]FaultRow, error) {
	if drops == nil {
		drops = DefaultFaultDrops
	}
	if cutoffs == nil {
		cutoffs = DefaultFaultCutoffs
	}
	seed := s.Faults.Seed
	s.Faults = fault.Config{}
	var rows []FaultRow
	var jobs []job
	add := func(name emu.PolicyName, setting string, faults fault.Config) {
		rows = append(rows, FaultRow{Policy: name, Setting: setting})
		jobs = append(jobs, job{fmt.Sprintf("%s %s", name, setting), emu.Config{
			Trace:  tr,
			Policy: emu.Factory(name, emu.DefaultParams()),
			Faults: faults,
		}})
	}
	for _, name := range emu.AllPolicies {
		for _, p := range drops {
			add(name, fmt.Sprintf("drop=%.2f", p), fault.Config{Seed: seed, Drop: p})
		}
		for _, n := range cutoffs {
			add(name, fmt.Sprintf("cutoff<=%d", n),
				fault.Config{Seed: seed, Cutoff: faultCutoffProb, CutoffItems: n})
		}
	}
	results, err := s.runAll("fault sweep", jobs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		r := &rows[i]
		r.Delivered = res.Summary.DeliveryRate()
		r.Delivered12h = res.Summary.DeliveredWithin(Deadline12h)
		r.MeanDelayHours = res.Summary.MeanDelayHours()
		r.EncountersDropped = res.EncountersDropped
		r.SyncsAborted = res.SyncsAborted
		r.ItemsWasted = res.ItemsWasted
		r.KnowledgeBytesPerEnc = knowledgePerEncounter(res)
	}
	return rows, nil
}

// knowledgePerEncounter reports the mean knowledge-frame bytes shipped per
// encounter of one run (0 when the trace had no encounters).
func knowledgePerEncounter(res *emu.Result) float64 {
	if res.Encounters == 0 {
		return 0
	}
	return float64(res.KnowledgeBytes) / float64(res.Encounters)
}

// FormatFaultSweep renders fault-sweep rows as an aligned table.
func FormatFaultSweep(rows []FaultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s%-12s%11s%11s%12s%9s%9s%9s%11s\n",
		"policy", "fault", "delivered", "12h deliv", "mean delay", "dropped", "aborted", "wasted", "know B/enc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s%-12s%10.1f%%%10.1f%%%11.1fh%9d%9d%9d%11.1f\n",
			r.Policy, r.Setting, r.Delivered*100, r.Delivered12h*100, r.MeanDelayHours,
			r.EncountersDropped, r.SyncsAborted, r.ItemsWasted, r.KnowledgeBytesPerEnc)
	}
	return b.String()
}
