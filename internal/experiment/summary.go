package experiment

import (
	"fmt"
	"strings"

	"replidtn/internal/emu"
)

// SummaryRow condenses one policy's full outcome: the cross-figure overview
// behind the paper's §VI discussion.
type SummaryRow struct {
	Policy            emu.PolicyName
	Delivered         int
	Total             int
	Within12h         float64
	MeanDelayHours    float64
	MedianDelayHours  float64
	P90DelayHours     float64
	MaxDelayHours     float64
	CopiesAtEnd       float64
	ItemsTransferred  int
	KnowledgeEntries  float64
	DuplicateReceipts int
}

// SummaryRows condenses a policy sweep.
func (ps *PolicySweep) SummaryRows() []SummaryRow {
	out := make([]SummaryRow, 0, len(emu.AllPolicies))
	for _, name := range emu.AllPolicies {
		res := ps.Results[name]
		s := res.Summary
		out = append(out, SummaryRow{
			Policy:            name,
			Delivered:         s.DeliveredCount(),
			Total:             s.Total(),
			Within12h:         s.DeliveredWithin(Deadline12h),
			MeanDelayHours:    s.MeanDelayHours(),
			MedianDelayHours:  s.MedianDelayHours(),
			P90DelayHours:     s.PercentileDelayHours(90),
			MaxDelayHours:     s.MaxDelayHours(),
			CopiesAtEnd:       s.MeanCopiesAtEnd(),
			ItemsTransferred:  res.ItemsTransferred,
			KnowledgeEntries:  res.MeanKnowledgeEntries,
			DuplicateReceipts: res.Duplicates,
		})
	}
	return out
}

// FormatSummary renders the overview table. traffic counts items and know#
// the mean knowledge entries per node, not bytes.
func FormatSummary(rows []SummaryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s%10s%8s%8s%8s%8s%8s%8s%9s%7s%5s\n",
		"policy", "delivered", "12h%", "mean", "median", "p90", "max", "copies", "traffic", "know#", "dup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s%5d/%-4d%7.1f%%%7.1fh%7.1fh%7.1fh%7.1fh%8.1f%9d%7.0f%5d\n",
			r.Policy, r.Delivered, r.Total, r.Within12h*100,
			r.MeanDelayHours, r.MedianDelayHours, r.P90DelayHours, r.MaxDelayHours,
			r.CopiesAtEnd, r.ItemsTransferred, r.KnowledgeEntries, r.DuplicateReceipts)
	}
	return b.String()
}
