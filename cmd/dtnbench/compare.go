package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one workload × metric row.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
	verdictLayer      = "-"          // layer metrics explain; they are not judged
)

// compareFiles compares two -out files (the second against the first) and
// prints one row per workload × metric. It reports whether any end-to-end
// metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	return compareReports(w, a, b), nil
}

func compareReports(w io.Writer, a, b *Report) bool {
	regressed := false
	fmt.Fprintf(w, "%-20s %-38s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "first", "second", "change", "spread", "bound", "verdict")
	for _, workload := range allWorkloads {
		for _, d := range metricDefs {
			va, vb := valuesOf(a, workload, d.Name), valuesOf(b, workload, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := judge(d, va, vb)
			regressed = regressed || row.verdict == verdictRegressed
			bound := "-"
			switch {
			case d.Bound == anyIncrease:
				bound = "any"
			case d.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(w, "%-20s %-38s %14.6g %14.6g %+7.1f%% %7.1f%% %6s  %s\n",
				workload, d.Name, row.first, row.second, row.change*100, row.spread*100, bound, row.verdict)
		}
	}
	return regressed
}

// valuesOf lists a metric's value in each of the report's runs of workload.
func valuesOf(r *Report, workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload != workload {
			continue
		}
		if v, ok := run.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

type comparison struct {
	first, second float64 // medians
	change        float64 // (second-first)/first
	spread        float64 // the wider side's interquartile range over its median
	verdict       string
}

// judge applies a metric's direction and bound to two sets of runs.
func judge(d metricDef, a, b []float64) comparison {
	c := comparison{first: medianFloat(a), second: medianFloat(b)}
	if c.first != 0 {
		c.change = (c.second - c.first) / c.first
	}
	c.spread = spreadOf(a)
	if s := spreadOf(b); s > c.spread {
		c.spread = s
	}
	worse := c.change
	if d.Better == "higher" {
		worse = -c.change
	}
	switch {
	case d.Bound == 0:
		c.verdict = verdictLayer
	case d.Bound == anyIncrease:
		c.verdict = verdictUnchanged
		if c.second > c.first {
			c.verdict = verdictRegressed
		} else if c.second < c.first {
			c.verdict = verdictImproved
		}
	case worse > d.Bound && worse > c.spread:
		c.verdict = verdictRegressed
	case -worse > d.Bound && -worse > c.spread:
		c.verdict = verdictImproved
	case c.spread > d.Bound:
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// spreadOf is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(v, n=4)
// gives them. Fewer than four runs have no spread to speak of.
func spreadOf(v []float64) float64 {
	n := len(v)
	med := medianFloat(v)
	if n < 4 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread := (quartile(3) - quartile(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}
