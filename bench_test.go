package replidtn

// One benchmark per table and figure of the paper's evaluation, each
// regenerating its rows/series on a scaled-down deterministic trace, plus
// micro-benchmarks for the synchronization hot path. Run with:
//
//	go test -bench=. -benchmem
//
// The full-scale experiments (paper-calibrated 17-day trace) run via
// cmd/dtnsim; their measured outputs are recorded in EXPERIMENTS.md.

import (
	"fmt"
	"testing"

	"replidtn/internal/emu"
	"replidtn/internal/experiment"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/trace"
	"replidtn/internal/vclock"
)

// benchTrace caches the scaled-down trace across benchmarks.
var benchTrace *trace.Trace

func getBenchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	if benchTrace == nil {
		tr, err := experiment.SmallTrace(1)
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
	}
	return benchTrace
}

// BenchmarkTable1 regenerates the Table I policy summary.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiment.FormatTable1(experiment.Table1()); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates the Table II parameter listing.
func BenchmarkTable2(b *testing.B) {
	params := emu.DefaultParams()
	for i := 0; i < b.N; i++ {
		if out := experiment.FormatTable2(params); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig5 regenerates the mean-delay-vs-filter-size sweep (random and
// selected strategies).
func BenchmarkFig5(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		fs, err := experiment.RunFilterSweep(tr, []int{0, 2, 8}, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(fs.Fig5()) != 2 {
			b.Fatal("malformed Fig5 series")
		}
	}
}

// BenchmarkFig6 regenerates the delivery-within-12h-vs-filter-size sweep.
func BenchmarkFig6(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		fs, err := experiment.RunFilterSweep(tr, []int{0, 2, 8}, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(fs.Fig6()) != 2 {
			b.Fatal("malformed Fig6 series")
		}
	}
}

// BenchmarkFig7 regenerates the unconstrained per-policy delay CDFs (both
// the 12-hour and the 10-day views).
func BenchmarkFig7(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		ps, err := experiment.RunPolicySweep(tr, emu.DefaultParams(), 0, 0, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.CDFHours(12)) == 0 || len(ps.CDFDays(10)) == 0 {
			b.Fatal("malformed Fig7 series")
		}
	}
}

// BenchmarkFig8 regenerates the stored-copies accounting.
func BenchmarkFig8(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		ps, err := experiment.RunPolicySweep(tr, emu.DefaultParams(), 0, 0, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.Fig8()) == 0 {
			b.Fatal("malformed Fig8 rows")
		}
	}
}

// BenchmarkFig9 regenerates the bandwidth-constrained CDFs (one message per
// encounter).
func BenchmarkFig9(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		ps, err := experiment.RunPolicySweep(tr, emu.DefaultParams(), 1, 0, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.CDFHours(12)) == 0 {
			b.Fatal("malformed Fig9 series")
		}
	}
}

// BenchmarkFig10 regenerates the storage-constrained CDFs (two relayed
// messages per node, FIFO eviction).
func BenchmarkFig10(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		ps, err := experiment.RunPolicySweep(tr, emu.DefaultParams(), 0, 2, experiment.Settings{})
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.CDFHours(12)) == 0 {
			b.Fatal("malformed Fig10 series")
		}
	}
}

// BenchmarkAblationTTL regenerates the epidemic TTL ablation.
func BenchmarkAblationTTL(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblation(tr, experiment.Ablations[0], []int64{2, 10}, experiment.Settings{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSprayCopies regenerates the spray allowance ablation.
func BenchmarkAblationSprayCopies(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblation(tr, experiment.Ablations[1], []int64{4, 16}, experiment.Settings{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEviction regenerates the relay-eviction comparison.
func BenchmarkAblationEviction(b *testing.B) {
	tr := getBenchTrace(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAblation(tr, experiment.Ablations[7], nil, experiment.Settings{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncPair measures one directed synchronization between two
// replicas holding a realistic store.
func BenchmarkSyncPair(b *testing.B) {
	src := replica.New(replica.Config{
		ID: "src", OwnAddresses: []string{"addr:src"}, Policy: epidemic.New(10),
	})
	for i := 0; i < 200; i++ {
		src.CreateItem(item.Metadata{
			Source:       "addr:src",
			Destinations: []string{fmt.Sprintf("addr:%d", i%20)},
			Kind:         "message",
		}, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := replica.New(replica.Config{
			ID:           vclock.ReplicaID(fmt.Sprintf("dst%d", i)),
			OwnAddresses: []string{"addr:0"},
			Policy:       epidemic.New(10),
		})
		replica.Sync(src, dst, 0)
	}
}

// BenchmarkSyncPairConstrained measures the bandwidth-constrained encounter
// hot path (Fig. 9's 1-message budget) against a large source store: the
// source must pick the single best item out of thousands of candidates,
// which exercises the streaming top-K batch selector rather than a full
// sort.
func BenchmarkSyncPairConstrained(b *testing.B) {
	src := replica.New(replica.Config{
		ID: "src", OwnAddresses: []string{"addr:src"}, Policy: epidemic.New(10),
	})
	for i := 0; i < 5000; i++ {
		src.CreateItem(item.Metadata{
			Source:       "addr:src",
			Destinations: []string{fmt.Sprintf("addr:%d", i%20)},
			Kind:         "message",
		}, nil)
	}
	dst := replica.New(replica.Config{
		ID: "dst", OwnAddresses: []string{"addr:none"}, Policy: epidemic.New(10),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := dst.MakeSyncRequest(1)
		resp := src.HandleSyncRequest(req)
		if len(resp.Items) != 1 {
			b.Fatalf("want 1 item, got %d", len(resp.Items))
		}
	}
}

// BenchmarkEmulationDay measures one emulated day of the full evaluation
// pipeline under Epidemic routing.
func BenchmarkEmulationDay(b *testing.B) {
	dn := trace.DefaultDieselNet()
	dn.Days = 1
	wl := trace.DefaultWorkload()
	wl.InjectDays = 1
	wl.Messages = 61
	tr, err := trace.Generate(dn, wl, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emu.Run(emu.Config{
			Trace:  tr,
			Policy: emu.Factory(emu.PolicyEpidemic, emu.DefaultParams()),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
