// Livenet: the replication substrate as a real distributed system — five
// nodes in one process connected only by TCP loopback sockets, flooding a
// message along a line topology with Epidemic routing.
//
// Every node runs a transport.Server; encounters are genuine network
// exchanges of the sync protocol (hello, request with knowledge + filter +
// routing state, prioritized batch, reverse sync, ack).
//
// Run with: go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/transport"
	"replidtn/internal/vclock"
)

const nodeCount = 5

func main() {
	nodes := make([]*replica.Replica, nodeCount)
	servers := make([]*transport.Server, nodeCount)
	addrs := make([]string, nodeCount)
	for i := range nodes {
		id := fmt.Sprintf("node%d", i)
		nodes[i] = replica.New(replica.Config{
			ID:           vclock.ReplicaID(id),
			OwnAddresses: []string{fmt.Sprintf("addr:%d", i)},
			Policy:       epidemic.New(10),
			OnDeliver: func(it *item.Item) {
				fmt.Printf("  %s delivered %q\n", id, it.Payload)
			},
		})
		servers[i] = transport.NewServer(nodes[i], 0)
		bound, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer servers[i].Close()
		addrs[i] = bound.String()
		fmt.Printf("%s listening on %s\n", id, addrs[i])
	}

	msg := nodes[0].CreateItem(item.Metadata{
		Source:       "addr:0",
		Destinations: []string{fmt.Sprintf("addr:%d", nodeCount-1)},
		Kind:         "message",
	}, []byte("hello across the wire"))
	fmt.Printf("\nnode0 sends %s to addr:%d; encounters run left to right:\n", msg.ID, nodeCount-1)

	var dialer transport.Dialer
	defer dialer.Close()
	for i := 0; i+1 < nodeCount; i++ {
		if _, err := dialer.Encounter(nodes[i], addrs[i+1], 0, 5*time.Second, transport.DialOptions{}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  node%d <-> node%d done; node%d holds the message: %v\n",
			i, i+1, i+1, nodes[i+1].HasItem(msg.ID))
	}

	last := nodes[nodeCount-1].Stats()
	fmt.Printf("\nfinal node: delivered=%d duplicates=%d\n", last.Delivered, last.Duplicates)
}
