package emu

import (
	"testing"

	"replidtn/internal/trace"
)

// benchTraces caches generated traces across benchmark runs.
var benchTraces = map[string]*trace.Trace{}

func benchTrace(b *testing.B, full bool) *trace.Trace {
	b.Helper()
	key := "small"
	if full {
		key = "full"
	}
	if tr := benchTraces[key]; tr != nil {
		return tr
	}
	dn := trace.DefaultDieselNet()
	wl := trace.DefaultWorkload()
	if !full {
		dn.Days = 5
		dn.FleetSize = 12
		dn.ActivePerDay = 10
		dn.Routes = 4
		dn.EncountersPerDay = 220
		wl.Users = 20
		wl.Messages = 60
		wl.InjectDays = 2
	}
	tr, err := trace.Generate(dn, wl, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[key] = tr
	return tr
}

// BenchmarkEmuRun measures one full emulation run under epidemic routing —
// the heaviest policy — on the scaled-down and the paper-calibrated trace.
// Allocation stats expose the O(1) copy accounting: a run never scans every
// endpoint store per delivery or per message at the end of the run.
func BenchmarkEmuRun(b *testing.B) {
	for _, size := range []string{"small", "full"} {
		b.Run("trace="+size, func(b *testing.B) {
			tr := benchTrace(b, size == "full")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Trace:  tr,
					Policy: Factory(PolicyEpidemic, DefaultParams()),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Summary.DeliveredCount() == 0 {
					b.Fatal("run delivered nothing")
				}
			}
		})
	}
}

// BenchmarkEmuRunConstrained measures the Fig. 9 bandwidth-constrained
// configuration, whose per-encounter work (top-1 selection over the whole
// store) differs markedly from the unconstrained run, for the two policies
// whose budgeted serves price candidates: MaxProp (bounded by hop class) and
// PROPHET (priced by destination).
func BenchmarkEmuRunConstrained(b *testing.B) {
	tr := benchTrace(b, false)
	for _, policy := range []PolicyName{PolicyMaxProp, PolicyProphet} {
		b.Run("policy="+string(policy), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{
					Trace:                   tr,
					Policy:                  Factory(policy, DefaultParams()),
					MaxMessagesPerEncounter: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
