package main

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestSplitPeers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , , b:2 ", []string{"a:1", "b:2"}},
	}
	for _, tc := range cases {
		got := splitPeers(tc.in)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitPeers(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestBuildPolicy(t *testing.T) {
	for _, name := range []string{"epidemic", "spray", "prophet", "maxprop"} {
		pol, err := buildPolicy(name, "node1", "addr:1")
		if err != nil {
			t.Errorf("buildPolicy(%q): %v", name, err)
		}
		if pol == nil {
			t.Errorf("buildPolicy(%q) returned nil policy", name)
		}
	}
	if pol, err := buildPolicy("none", "n", "a"); err != nil || pol != nil {
		t.Error("none should yield a nil policy without error")
	}
	if _, err := buildPolicy("bogus", "n", "a"); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestEveryStopJoinsTheLoop: stopping the background sync loop waits for a
// sync in flight and leaves no loop goroutine behind. run closes the node's
// WAL once stop returns, so a sync still running then would apply a batch
// the journal never records.
func TestEveryStopJoinsTheLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	stop := every(time.Millisecond, func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})
	<-entered
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("stop returned while a sync was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not return after the in-flight sync finished")
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("loop goroutine left running: %d goroutines before, %d after stop", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
