// Allocation budgets for the knowledge lookups the serve walk makes for
// every candidate it scans: counts, not clocks. One allocation per lookup is
// one per stored entry per encounter, which no timing test resolves.
//
// Excluded under -race: the race runtime instruments allocations and
// inflates the counts.

//go:build !race

package vclock

import (
	"fmt"
	"testing"
)

var cloneSink *Knowledge

// TestKnowledgeLookupAllocs pins the per-candidate knowledge reads at zero
// allocations, Clone at its one copy-on-write header, and the encoding and
// its sizing at zero: the rows are already in creator order, and each
// row's exceptions sort in a stack buffer. The shape is the
// paper trace's fleet: 26 creators, each known to seq 50 plus one exception.
func TestKnowledgeLookupAllocs(t *testing.T) {
	k := NewKnowledge()
	for c := 0; c < 26; c++ {
		r := ReplicaID(fmt.Sprintf("bus-%02d", c))
		for s := uint64(1); s <= 50; s++ {
			k.Add(Version{Replica: r, Seq: s})
		}
		k.Add(Version{Replica: r, Seq: 60})
	}
	known := Version{Replica: "bus-07", Seq: 60}
	buf, _ := k.AppendBinary(nil)
	unknown := Version{Replica: "bus-07", Seq: 55}
	for _, b := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"Contains", 0, func() {
			if !k.Contains(known) || k.Contains(unknown) {
				t.Fatal("Contains answered wrong")
			}
		}},
		{"View+HasException", 0, func() {
			if v := k.View("bus-07"); v.Base != 50 || !v.HasException(60) || v.HasException(55) {
				t.Fatal("View answered wrong")
			}
		}},
		{"Add of a known version", 0, func() {
			if k.Add(known) {
				t.Fatal("Add relearned a known version")
			}
		}},
		{"Clone", 1, func() { cloneSink = k.Clone() }},
		{"AppendBinary into a buffer with room", 0, func() { buf, _ = k.AppendBinary(buf[:0]) }},
		{"WireSize with its memo forgotten", 0, func() {
			k.wireSize = 0
			if k.WireSize() != len(buf) {
				t.Fatal("WireSize disagrees with the encoding")
			}
		}},
	} {
		if got := testing.AllocsPerRun(100, b.f); got > b.budget {
			t.Errorf("%s allocates %.1f/op, budget %.0f", b.name, got, b.budget)
		}
	}
}
