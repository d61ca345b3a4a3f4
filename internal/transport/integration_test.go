package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/spraywait"
	"replidtn/internal/trace"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/prim"
)

// TestTraceDrivenOverTCPMatchesInProcess replays the same generated
// encounter schedule twice — once through the in-process sync engine and
// once over real TCP loopback connections — and checks that deliveries,
// duplicates, and store contents come out identical. This pins the wire
// protocol to the reference semantics, down to everything the dialer's pull
// reports (batch, knowledge-frame bytes, apply stats) and the batch bytes of
// the reverse leg; over TCP, each leg's batch bytes are those of the items
// in the response frame that crossed the wire. Two more replays with
// summary request modes on, in process and over TCP, pin the delta frames —
// knowledge and routing state both — to the same outcome and to each other,
// leg by leg.
func TestTraceDrivenOverTCPMatchesInProcess(t *testing.T) {
	dn := trace.DefaultDieselNet()
	dn.Days = 2
	dn.FleetSize = 6
	dn.ActivePerDay = 5
	dn.Routes = 2
	dn.EncountersPerDay = 40
	encounters, _, buses, err := trace.GenerateDieselNet(dn)
	if err != nil {
		t.Fatal(err)
	}

	for _, policyName := range []string{"epidemic", "spray", "prophet", "maxprop"} {
		policyName := policyName
		t.Run(policyName, func(t *testing.T) {
			local, localLegs := runSchedule(t, buses, encounters, policyName, false, false)
			tcp, tcpLegs := runSchedule(t, buses, encounters, policyName, true, false)
			compareSchedules(t, buses, local, tcp)
			compareLegs(t, localLegs, tcpLegs)
			_, localSummarizedLegs := runSchedule(t, buses, encounters, policyName, false, true)
			summarized, summarizedLegs := runSchedule(t, buses, encounters, policyName, true, true)
			compareSchedules(t, buses, local, summarized)
			compareLegs(t, localSummarizedLegs, summarizedLegs)
			deltas := 0
			for _, bus := range buses {
				deltas += summarized[bus].Stats().KnowledgeDeltaFrames
			}
			if deltas == 0 {
				t.Error("the summaries-on replay never sent a delta frame")
			}
		})
	}
}

// compareSchedules checks that two replays of one schedule ended alike.
func compareSchedules(t *testing.T, buses []string, local, networked map[string]*replica.Replica) {
	t.Helper()
	for _, bus := range buses {
		ls, ns := local[bus].Stats(), networked[bus].Stats()
		if ls.Delivered != ns.Delivered {
			t.Errorf("%s: delivered %d locally vs %d over TCP", bus, ls.Delivered, ns.Delivered)
		}
		if ns.Duplicates != 0 {
			t.Errorf("%s: %d duplicates over TCP", bus, ns.Duplicates)
		}
		lt, ll, _ := local[bus].StoreLen()
		nt, nl, _ := networked[bus].StoreLen()
		if lt != nt || ll != nl {
			t.Errorf("%s: store %d/%d locally vs %d/%d over TCP", bus, lt, ll, nt, nl)
		}
		if !local[bus].Knowledge().Equal(networked[bus].Knowledge()) {
			t.Errorf("%s: knowledge diverged between local and TCP runs", bus)
		}
		lp, _ := local[bus].PolicyState()
		np, _ := networked[bus].PolicyState()
		if !bytes.Equal(lp, np) {
			t.Errorf("%s: routing state diverged between local and TCP runs", bus)
		}
	}
}

// legs is what one encounter reports: the whole result of the A→B leg, which
// the TCP dialer pulls, and the batch the B→A leg moved.
type legs struct {
	pulled    replica.SyncResult
	sent      int
	sentBytes int64
}

// compareLegs checks that every encounter reported the same legs in two
// replays of one schedule.
func compareLegs(t *testing.T, local, networked []legs) {
	t.Helper()
	for i := range local {
		if local[i] != networked[i] {
			t.Errorf("encounter %d: legs %+v locally vs %+v over TCP", i, local[i], networked[i])
			return
		}
	}
}

// runSchedule replays the encounter schedule with each bus sending one
// message to the next bus, either in-process or over TCP. Besides the final
// replicas it returns each encounter's legs.
func runSchedule(t *testing.T, buses []string, encounters []trace.Encounter, policyName string, overTCP, summaries bool) (map[string]*replica.Replica, []legs) {
	dl := newDialer(t)
	t.Helper()
	var now int64
	clock := func() int64 { return now }
	nodes := make(map[string]*replica.Replica, len(buses))
	servers := make(map[string]*Server, len(buses))
	addrs := make(map[string]string, len(buses))
	sniffers := make(map[string]*frameSniffer, len(buses))
	for _, bus := range buses {
		var pol routing.Policy
		switch policyName {
		case "epidemic":
			pol = epidemic.New(10)
		case "spray":
			pol = spraywait.New(8)
		case "prophet":
			pol = prophet.New(prophet.DefaultParams(), clock, bus)
		case "maxprop":
			pol = maxprop.New(vclock.ReplicaID(bus), 3, clock, bus)
		default:
			t.Fatalf("unknown policy %q", policyName)
		}
		nodes[bus] = replica.New(replica.Config{
			ID:            vclock.ReplicaID(bus),
			OwnAddresses:  []string{bus},
			Policy:        pol,
			SyncSummaries: summaries,
		})
		if overTCP {
			srv := NewServer(nodes[bus], 0)
			srv.OnError = func(err error) { t.Errorf("server %s: %v", bus, err) }
			bound, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			servers[bus] = srv
			addrs[bus], sniffers[bus] = sniff(t, bound.String())
		}
	}
	if overTCP {
		t.Cleanup(func() {
			for _, srv := range servers {
				srv.Close()
			}
		})
	}
	for i, bus := range buses {
		dest := buses[(i+1)%len(buses)]
		nodes[bus].CreateItem(item.Metadata{
			Source:       bus,
			Destinations: []string{dest},
			Kind:         "message",
		}, []byte(fmt.Sprintf("m-%s", bus)))
	}
	reported := make([]legs, 0, len(encounters))
	for _, e := range encounters {
		now = e.Time
		var aToB, bToA replica.SyncResult
		if overTCP {
			// B dials A: the dialer's pull is the A→B leg.
			res, err := dl.Encounter(nodes[e.B], addrs[e.A], 0, 5*time.Second, DialOptions{})
			if err != nil {
				t.Fatalf("encounter %s-%s: %v", e.A, e.B, err)
			}
			aToB, bToA = res.BtoA, res.AtoB
			frames := sniffers[e.A].take()
			if got := itemSection(t, frames, false); got != aToB.SentBytes {
				t.Errorf("encounter %s-%s: the pull reports %d batch bytes, the frame A wrote carries %d", e.A, e.B, aToB.SentBytes, got)
			}
			if got := itemSection(t, frames, true); got != bToA.SentBytes {
				t.Errorf("encounter %s-%s: the served leg reports %d batch bytes, the frame B wrote carries %d", e.A, e.B, bToA.SentBytes, got)
			}
		} else {
			res := replica.Encounter(nodes[e.A], nodes[e.B], 0)
			aToB, bToA = res.AtoB, res.BtoA
		}
		reported = append(reported, legs{aToB, bToA.Sent, bToA.SentBytes})
	}
	return nodes, reported
}

// itemSection returns the bytes the batch items take in the last sync
// response frame among frames sent toward the server (toServer) or from it:
// the body's length less that of the same response with no items, the item
// count's varint growing from its one byte for zero.
func itemSection(t *testing.T, frames []sniffedFrame, toServer bool) int64 {
	t.Helper()
	var body []byte
	for _, f := range frames {
		if f.toServer == toServer && f.msgType == frameSyncResponse {
			body = f.body
		}
	}
	resp, err := wire.DecodeSyncResponse(body)
	if err != nil {
		t.Fatalf("sniffed sync response: %v", err)
	}
	n := len(resp.Items)
	resp.Items = nil
	bare, err := wire.AppendSyncResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(body) - len(bare) - (prim.SizeUvarint(uint64(n)) - 1))
}
