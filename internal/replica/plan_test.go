package replica

import (
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/routing"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// destPlanner forwards an entry for each of its destinations it lists, at
// the earliest listed price, and plans the listed destinations' runs, as
// PROPHET does.
type destPlanner []routing.Segment

func (destPlanner) Name() string                                 { return "priced" }
func (destPlanner) GenerateReq() routing.Request                 { return nil }
func (destPlanner) ProcessReq(vclock.ReplicaID, routing.Request) {}

func (p destPlanner) ToSend(e *store.Entry, _ routing.Target) (routing.Priority, item.Transient) {
	best := routing.Skip
	for _, s := range p {
		for _, d := range e.Item.Meta.Destinations {
			if s.To == d && s.Priority.Before(best) {
				best = s.Priority
			}
		}
	}
	return best, item.Transient{}
}

func (p destPlanner) Plan(dst []routing.Segment, _ routing.Target) []routing.Segment {
	return append(dst, p...)
}

// TestPlanPassesOverADestinationTheBatchTurnsAway pins the one stop rule
// that needs no ordered run: once more candidates than the budget were
// offered, a destination's runs the full batch turns away even at the
// lowest ID are not walked. Every entry is an update, so no run is ordered
// and only that rule can pass over the second destination's; the batch is
// the reference's either way.
func TestPlanPassesOverADestinationTheBatchTurnsAway(t *testing.T) {
	policy := destPlanner{
		{Runs: routing.DestRuns, To: "addr:a", Priority: routing.Priority{Class: routing.ClassHigh}},
		{Runs: routing.DestRuns, To: "addr:b", Priority: routing.Priority{Class: routing.ClassLow}},
	}
	build := func() *Replica {
		src := New(Config{ID: "src", OwnAddresses: []string{"addr:src"}, Policy: policy})
		for _, to := range []string{"addr:a", "addr:a", "addr:a", "addr:b", "addr:b", "addr:b"} {
			it := src.CreateItem(item.Metadata{Source: "addr:src", Destinations: []string{to}, Kind: "message"}, nil)
			if _, err := src.UpdateItem(it.ID, []byte("v2")); err != nil {
				t.Fatal(err)
			}
		}
		return src
	}
	req := func() *SyncRequest {
		return &SyncRequest{TargetID: "tgt", Knowledge: vclock.NewKnowledge(), MaxItems: 1}
	}
	src, ref := build(), build()
	if err := sameResponse(ref.handleSyncRequestReference(req()), src.HandleSyncRequest(req())); err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.EntriesExamined != 3 || st.CandidatesOffered != 3 {
		t.Errorf("the serve examined %d entries and offered %d; want addr:a's 3 of each, and addr:b's passed over", st.EntriesExamined, st.CandidatesOffered)
	}
}
