// Durable: replica state survives a crash. A relay node journals every
// mutation to a write-ahead log, receives a message, is killed without a
// clean shutdown, and restarts by replaying the log — its knowledge is
// intact, so the sender does not re-transmit, and its stored relay copy
// still reaches the destination.
//
// Run with: go run ./examples/durable
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"replidtn/internal/item"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing/epidemic"
)

// openRelay boots the relay from the log in dir: a fresh replica on first
// boot, the replayed state otherwise. Every later mutation is journaled.
func openRelay(dir string) (*replica.Replica, *wal.DB) {
	fsys, err := wal.NewOSFS(dir)
	if err != nil {
		log.Fatal(err)
	}
	db, err := wal.Open(fsys, wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	relay := replica.New(replica.Config{
		ID: "relay", OwnAddresses: []string{"addr:relay"}, Policy: epidemic.New(10),
	})
	snap, err := db.Load()
	switch {
	case err == nil:
		if err := relay.RestoreSnapshot(snap); err != nil {
			log.Fatal(err)
		}
	case !errors.Is(err, wal.ErrNoState):
		log.Fatal(err)
	}
	if err := db.Attach(relay); err != nil {
		log.Fatal(err)
	}
	return relay, db
}

func main() {
	dir, err := os.MkdirTemp("", "replidtn-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	alice := replica.New(replica.Config{
		ID: "alice", OwnAddresses: []string{"addr:alice"}, Policy: epidemic.New(10),
	})
	relay, _ := openRelay(dir)
	bob := replica.New(replica.Config{
		ID: "bob", OwnAddresses: []string{"addr:bob"},
		OnDeliver: func(it *item.Item) { fmt.Printf("bob got %q\n", it.Payload) },
	})

	msg := alice.CreateItem(item.Metadata{
		Source:       "addr:alice",
		Destinations: []string{"addr:bob"},
		Kind:         "message",
	}, []byte("durable hello"))
	replica.Encounter(alice, relay, 0)
	fmt.Printf("relay carries the message: %v\n", relay.HasItem(msg.ID))

	// The process "crashes": the in-memory relay and its open log are
	// abandoned without a checkpoint or Close, and the relay is rebuilt
	// from what the log made durable, with a fresh policy instance.
	relay = nil
	restarted, db := openRelay(dir)
	defer db.Close()
	fmt.Printf("restarted relay still carries it: %v\n", restarted.HasItem(msg.ID))

	// Alice meets the restarted relay: nothing to send — the knowledge
	// survived, so at-most-once holds across the crash.
	res := replica.Encounter(alice, restarted, 0)
	fmt.Printf("alice re-sent %d items after the restart\n", res.AtoB.Sent+res.BtoA.Sent)

	// The relay delivers to Bob as if nothing happened.
	replica.Encounter(restarted, bob, 0)
	fmt.Printf("bob delivered exactly once: %v\n", bob.Stats().Delivered == 1)
}
