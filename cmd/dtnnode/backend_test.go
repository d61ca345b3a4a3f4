package main

// Restart test for -data: a node is built, fed state, closed, and rebuilt
// over the same write-ahead log directory; the rebuilt node must carry the
// items and knowledge forward. This drives the real OSFS recovery path end
// to end — manifest read, segment replay, log replay.

import (
	"io"
	"path/filepath"
	"testing"
)

func restartNode(t *testing.T, path string) {
	t.Helper()
	opts := options{
		id: "alice", addr: "user:alice", listen: "127.0.0.1:0",
		policy: "epidemic", dataPath: path,
		out: io.Discard,
	}
	n, err := newNode(opts)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if _, err := n.ep.Send("user:alice", []string{"user:bob"}, []byte("survive me")); err != nil {
		n.close()
		t.Fatal(err)
	}
	itemCount, _, _ := n.ep.Replica().StoreLen()
	know := n.ep.Replica().Knowledge()
	n.close()

	n2, err := newNode(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer n2.close()
	if got, _, _ := n2.ep.Replica().StoreLen(); got != itemCount {
		t.Errorf("restarted store has %d items, want %d", got, itemCount)
	}
	if !n2.ep.Replica().Knowledge().Equal(know) {
		t.Error("restarted node lost knowledge; it would re-accept messages it already has")
	}
	// The restarted node keeps its version counter: a new message must not
	// collide with the persisted one.
	if _, err := n2.ep.Send("user:alice", []string{"user:bob"}, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := n2.ep.Replica().StoreLen(); got != itemCount+1 {
		t.Errorf("post-restart send: store has %d items, want %d", got, itemCount+1)
	}
}

func TestNodeRestartBackends(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		restartNode(t, filepath.Join(t.TempDir(), "waldir"))
	})
}
