// Allocation budget for the forwarding decision the serve walk asks for
// every candidate it scans: counts, not clocks.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package prophet

import (
	"testing"

	"replidtn/internal/routing"
)

// TestToSendAllocs pins ToSend at zero allocations, for a candidate it
// forwards and one it skips, against a partner vector of 16 entries.
func TestToSendAllocs(t *testing.T) {
	clk := &simClock{}
	src := newPolicy(clk, "addr:src")
	tgt := newPolicy(clk, "addr:tgt")
	history(tgt, clk, 16)
	tgt.ProcessReq("dst", reqFrom(newPolicy(clk, "addr:dst")))
	src.ProcessReq("tgt", reqFrom(tgt))
	send, skip := msgEntry("addr:dst"), msgEntry("addr:nobody")
	target := routing.Target{ID: "tgt"}
	allocs := testing.AllocsPerRun(100, func() {
		if pr, _ := src.ToSend(send, target); pr.Class != routing.ClassNormal {
			t.Fatal("a better custodian was skipped")
		}
		if pr, _ := src.ToSend(skip, target); pr.Class != routing.ClassSkip {
			t.Fatal("an unknown destination was forwarded")
		}
	})
	if allocs > 0 {
		t.Errorf("ToSend allocates %.1f/op, budget 0", allocs)
	}
}

// TestDestinationsAllocs pins Plan into a warm slice at zero
// allocations, against a partner vector of 16 entries it forwards to.
func TestDestinationsAllocs(t *testing.T) {
	clk := &simClock{}
	src := newPolicy(clk, "addr:src")
	tgt := newPolicy(clk, "addr:tgt")
	history(tgt, clk, 16)
	src.ProcessReq("tgt", reqFrom(tgt))
	target := routing.Target{ID: "tgt"}
	buf := src.Plan(nil, target)
	if len(buf) != 16 {
		t.Fatalf("%d destinations listed, want 16", len(buf))
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = src.Plan(buf[:0], target)
	})
	if allocs > 0 {
		t.Errorf("Plan allocates %.1f/op, budget 0", allocs)
	}
}
