package emu

import (
	"testing"
)

// TestObsAggregatesAcrossFleet: the run's summed ledger reconciles with the
// run's own accounting — the store's live occupancy with the end-of-run copy
// census, the abort counter with the fault layer's. Crash-restarts are
// enabled so the test also pins how an incarnation retires: its counts join
// the sum, its occupancy does not (its successor holds the same state).
func TestObsAggregatesAcrossFleet(t *testing.T) {
	tr := miniTrace(t)
	res := runPolicy(t, tr, PolicyEpidemic, func(c *Config) {
		c.Faults = testFaults(9)
	})
	if res.Crashes == 0 || res.SyncsAborted == 0 {
		t.Fatalf("fault mix too tame to exercise the ledger: crashes=%d aborts=%d",
			res.Crashes, res.SyncsAborted)
	}

	st := res.Stats
	if st.SyncsInitiated == 0 || st.BatchesApplied == 0 {
		t.Errorf("replica counters flat: initiated=%d applied=%d",
			st.SyncsInitiated, st.BatchesApplied)
	}
	if got, want := st.SyncsAborted, res.SyncsAborted; got != want {
		t.Errorf("SyncsAborted = %d, result says %d", got, want)
	}

	// Every live entry across the fleet is a copy of a tracked message, so
	// the summed occupancy must equal the copy census — crashes included.
	copies := 0
	for _, d := range res.Summary.Deliveries() {
		copies += d.CopiesAtEnd
	}
	if got := st.Live; got != copies {
		t.Errorf("Live occupancy = %d, copy census says %d", got, copies)
	}
	if st.Relay < 0 || st.StoredTombstones < 0 {
		t.Errorf("negative occupancy: relay=%d tombstones=%d",
			st.Relay, st.StoredTombstones)
	}
}

// TestStatsSumEveryIncarnation: under crash-restarts, with summaries on and
// off, the summed ledger counts what every incarnation of every node did —
// a node's counts before its crash included — so it agrees with the run's
// own per-sync accounting.
func TestStatsSumEveryIncarnation(t *testing.T) {
	tr := miniTrace(t)
	for _, summaries := range []bool{false, true} {
		res := runPolicy(t, tr, PolicyProphet, func(c *Config) {
			c.Faults = testFaults(9)
			c.SyncSummaries = summaries
		})
		if res.Crashes == 0 || res.SyncsAborted == 0 {
			t.Fatalf("summaries %v: fault mix too tame: crashes=%d aborts=%d", summaries, res.Crashes, res.SyncsAborted)
		}
		st := res.Stats
		if st.SyncsInitiated != res.Syncs || st.SyncsAborted != res.SyncsAborted ||
			st.KnowledgeFullBytes+st.KnowledgeDeltaBytes != res.KnowledgeBytes || st.SummaryFallbacks != res.SummaryFallbacks {
			t.Errorf("summaries %v: ledger says %d syncs, %d aborted, %d+%d knowledge bytes, %d fallbacks; the run says %d, %d, %d and %d",
				summaries, st.SyncsInitiated, st.SyncsAborted, st.KnowledgeFullBytes, st.KnowledgeDeltaBytes, st.SummaryFallbacks,
				res.Syncs, res.SyncsAborted, res.KnowledgeBytes, res.SummaryFallbacks)
		}
		if summaries && st.KnowledgeDeltaFrames == 0 {
			t.Errorf("summaries on, but no knowledge delta was sent")
		}
		if st.Duplicates != res.Duplicates {
			t.Errorf("summaries %v: Duplicates %d, ledger %d", summaries, res.Duplicates, st.Duplicates)
		}
	}
}
