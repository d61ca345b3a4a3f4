// Mesh: a self-assembling DTN over real sockets. Four nodes know only a
// shared list of UDP beacon targets; discovery finds live peers, and every
// discovery triggers a TCP encounter, so a message floods the mesh with no
// static topology at all — the closest this library gets to radios meeting
// on the street.
//
// Run with: go run ./examples/mesh
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"replidtn/internal/discovery"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/transport"
	"replidtn/internal/vclock"
)

const nodeCount = 4

func main() {
	// Reserve one UDP beacon address per node.
	udpAddrs := make([]string, nodeCount)
	for i := range udpAddrs {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		udpAddrs[i] = conn.LocalAddr().String()
		conn.Close()
	}

	var delivered sync.WaitGroup
	delivered.Add(1)

	nodes := make([]*replica.Replica, nodeCount)
	for i := range nodes {
		i := i
		id := fmt.Sprintf("node%d", i)
		cfg := replica.Config{
			ID:           vclock.ReplicaID(id),
			OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
			Policy:       epidemic.New(10),
		}
		if i == nodeCount-1 {
			cfg.OnDeliver = func(it *item.Item) {
				fmt.Printf("%s delivered %q\n", id, it.Payload)
				delivered.Done()
			}
		}
		nodes[i] = replica.New(cfg)
	}

	// Start a TCP encounter server and a discoverer per node. Each node
	// beacons to every known UDP address; whoever answers gets an encounter.
	var dialer transport.Dialer
	defer dialer.Close()
	for i, node := range nodes {
		node := node
		srv := transport.NewServer(node, 0)
		tcpAddr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()

		disc := discovery.New(discovery.Config{
			Self:     node.ID(),
			TCPAddr:  tcpAddr.String(),
			Listen:   udpAddrs[i],
			Targets:  udpAddrs,
			Interval: 100 * time.Millisecond,
			OnPeer: func(p discovery.Peer) {
				fmt.Printf("%s discovered %s\n", node.ID(), p.ID)
				// Encounter errors are expected during shutdown (peers close
				// their servers as the example exits) and are simply skipped —
				// a DTN retries at the next contact anyway.
				_, _ = dialer.Encounter(node, p.Addr, 0, 5*time.Second, transport.DialOptions{})
			},
		})
		if _, err := disc.Start(); err != nil {
			log.Fatal(err)
		}
		defer disc.Stop()
	}

	msg := nodes[0].CreateItem(item.Metadata{
		Source:       "addr:0",
		Destinations: []string{fmt.Sprintf("addr:%d", nodeCount-1)},
		Kind:         "message",
	}, []byte("found you through the mesh"))
	fmt.Printf("node0 sent %s; waiting for the mesh to carry it...\n", msg.ID)

	done := make(chan struct{})
	go func() { delivered.Wait(); close(done) }()
	select {
	case <-done:
		fmt.Println("delivered — no static topology required")
	case <-time.After(15 * time.Second):
		log.Fatal("mesh failed to deliver in time")
	}
}
