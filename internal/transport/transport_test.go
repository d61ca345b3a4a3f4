package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
)

const testTimeout = 5 * time.Second

func node(t *testing.T, id, addr string) *replica.Replica {
	t.Helper()
	return replica.New(replica.Config{
		ID:           vclock.ReplicaID(id),
		OwnAddresses: []string{addr},
	})
}

func sendMsg(r *replica.Replica, from, to string) *item.Item {
	return r.CreateItem(item.Metadata{
		Source: from, Destinations: []string{to}, Kind: "message",
	}, []byte("over tcp"))
}

func serve(t testing.TB, r *replica.Replica, maxItems int) (string, *Server) {
	t.Helper()
	srv := NewServer(r, maxItems)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), srv
}

func TestEncounterDeliversBothDirections(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	b := node(t, "b", "addr:b")
	ma := sendMsg(a, "addr:a", "addr:b")
	mb := sendMsg(b, "addr:b", "addr:a")

	addr, _ := serve(t, a, 0)
	res, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BtoA.Sent != 1 || res.BtoA.Apply.Delivered != 1 {
		t.Errorf("pull leg: %+v", res.BtoA)
	}
	if res.AtoB.Sent != 1 {
		t.Errorf("push leg: %+v", res.AtoB)
	}
	if !b.HasItem(ma.ID) {
		t.Error("b missing a's message")
	}
	if !a.HasItem(mb.ID) {
		t.Error("a missing b's message")
	}
	if a.Stats().Delivered != 1 || b.Stats().Delivered != 1 {
		t.Error("both sides should deliver exactly once")
	}
}

func TestRepeatEncountersSendNothingNew(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	b := node(t, "b", "addr:b")
	sendMsg(a, "addr:a", "addr:b")
	addr, _ := serve(t, a, 0)
	if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BtoA.Sent != 0 || res.AtoB.Sent != 0 {
		t.Errorf("second encounter moved items: %+v", res)
	}
	if b.Stats().Duplicates != 0 {
		t.Error("duplicate receipt over TCP")
	}
}

func TestServerSideBandwidthCap(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	b := node(t, "b", "addr:b")
	for i := 0; i < 5; i++ {
		sendMsg(a, "addr:a", "addr:b")
	}
	addr, _ := serve(t, a, 2)
	res, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BtoA.Sent != 2 || !res.BtoA.Truncated {
		t.Errorf("server cap not applied: %+v", res.BtoA)
	}
}

func TestPolicyRequestsTravelOnTheWire(t *testing.T) {
	dl := newDialer(t)
	now := func() int64 { return 0 }
	mk := func(id, addr string) *replica.Replica {
		return replica.New(replica.Config{
			ID:           vclock.ReplicaID(id),
			OwnAddresses: []string{addr},
			Policy:       prophet.New(prophet.DefaultParams(), now, addr),
		})
	}
	a := mk("a", "addr:a")
	b := mk("b", "addr:b")
	c := mk("c", "addr:c")
	msg := sendMsg(a, "addr:a", "addr:c")

	// b meets c so b's predictability for addr:c rises, then a meets b and
	// should hand over the message — all over TCP.
	addrC, _ := serve(t, c, 0)
	if _, err := dl.Encounter(b, addrC, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	addrB, _ := serve(t, b, 0)
	if _, err := dl.Encounter(a, addrB, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	if !b.HasItem(msg.ID) {
		t.Fatal("PROPHET did not forward over TCP")
	}
	if _, err := dl.Encounter(b, addrC, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Delivered != 1 {
		t.Error("message not delivered via TCP relay chain")
	}
}

func TestMaxPropRequestsTravel(t *testing.T) {
	dl := newDialer(t)
	now := func() int64 { return 0 }
	mk := func(id, addr string) *replica.Replica {
		return replica.New(replica.Config{
			ID:           vclock.ReplicaID(id),
			OwnAddresses: []string{addr},
			Policy:       maxprop.New(vclock.ReplicaID(id), 3, now, addr),
		})
	}
	a := mk("a", "addr:a")
	b := mk("b", "addr:b")
	msg := sendMsg(a, "addr:a", "addr:z")
	addr, _ := serve(t, a, 0)
	if _, err := dl.Encounter(b, addr, 0, testTimeout, DialOptions{}); err != nil {
		t.Fatal(err)
	}
	if !b.HasItem(msg.ID) {
		t.Error("MaxProp flooding failed over TCP")
	}
}

func TestConcurrentEncounters(t *testing.T) {
	dl := newDialer(t)
	hub := replica.New(replica.Config{
		ID:           "hub",
		OwnAddresses: []string{"addr:hub"},
		Policy:       epidemic.New(10),
	})
	addr, _ := serve(t, hub, 0)

	const n = 8
	nodes := make([]*replica.Replica, n)
	for i := range nodes {
		nodes[i] = replica.New(replica.Config{
			ID:           vclock.ReplicaID(fmt.Sprintf("n%d", i)),
			OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
			Policy:       epidemic.New(10),
		})
		sendMsg(nodes[i], fmt.Sprintf("addr:%d", i), "addr:hub")
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, nd := range nodes {
		nd := nd
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := dl.Encounter(nd, addr, 0, testTimeout, DialOptions{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := hub.Stats().Delivered; got != n {
		t.Errorf("hub delivered %d messages, want %d", got, n)
	}
	if hub.Stats().Duplicates != 0 {
		t.Error("duplicates under concurrency")
	}
}

// TestConcurrentMaxPropPulls: a MaxProp hub pulls from several peers at once
// while they pull from it. Each exact-mode pull gives its request's shares
// back when its sync ends, so the hub writes its table, homes and knowledge
// in place only once no pull still encoding a request reads them; under
// -race a share given back while another is out is a reported race.
func TestConcurrentMaxPropPulls(t *testing.T) {
	dl := newDialer(t)
	now := func() int64 { return 1 }
	mk := func(id string) *replica.Replica {
		return replica.New(replica.Config{
			ID: vclock.ReplicaID(id), OwnAddresses: []string{"addr:" + id},
			Policy: maxprop.New(vclock.ReplicaID(id), 3, now, "addr:"+id),
		})
	}
	hub := mk("hub")
	hubAddr, _ := serve(t, hub, 0)
	const n, rounds = 4, 10
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("p%d", i)
		peer := mk(id)
		peerAddr, _ := serve(t, peer, 0)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				sendMsg(peer, "addr:"+id, "addr:hub")
				if _, err := dl.Encounter(peer, hubAddr, 0, testTimeout, DialOptions{}); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				sendMsg(hub, "addr:hub", "addr:"+id)
				if _, err := dl.Encounter(hub, peerAddr, 0, testTimeout, DialOptions{}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	// Duplicates are not checked: a pull's knowledge is taken when its
	// request is, so concurrent pulls may fetch one relayed copy twice.
	if got := hub.Stats().Delivered; got != n*rounds {
		t.Errorf("hub delivered %d of %d messages", got, n*rounds)
	}
}

// Frame buffers are recycled process-wide: concurrent bulk pulls through one
// server each receive every payload intact, whatever the other connections
// write into the recycled buffers meanwhile.
func TestConcurrentPullsKeepPayloads(t *testing.T) {
	dl := newDialer(t)
	src := replica.New(replica.Config{ID: "src", OwnAddresses: []string{"addr:src"}, Policy: epidemic.New(0)})
	want := map[item.ID][]byte{}
	for i := 0; i < 64; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 1<<10)
		it := src.CreateItem(item.Metadata{Source: "addr:src", Destinations: []string{fmt.Sprintf("addr:far%d", i)}, Kind: "message"}, payload)
		want[it.ID] = payload
	}
	addr, _ := serve(t, src, 0)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := replica.New(replica.Config{ID: vclock.ReplicaID(fmt.Sprintf("d%d", i)), OwnAddresses: []string{fmt.Sprintf("addr:d%d", i)}, Policy: epidemic.New(0)})
			if _, err := dl.Encounter(d, addr, 0, testTimeout, DialOptions{}); err != nil {
				t.Error(err)
				return
			}
			for id, payload := range want {
				if e := d.Entry(id); e == nil || !bytes.Equal(e.Item.Payload, payload) {
					t.Errorf("dialer %d: item %v missing or corrupted", i, id)
				}
			}
		}()
	}
	wg.Wait()
}

func TestCloseIsIdempotentAndBlocksListen(t *testing.T) {
	a := node(t, "a", "addr:a")
	srv := NewServer(a, 0)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close should fail")
	}
}

func TestDialFailure(t *testing.T) {
	dl := newDialer(t)
	a := node(t, "a", "addr:a")
	if _, err := dl.Encounter(a, "127.0.0.1:1", 0, 200*time.Millisecond, DialOptions{}); err == nil {
		t.Error("dialing a dead port should fail")
	}
}
