// Command dtnnode runs a live networked DTN messaging node: a replica served
// over TCP plus a tiny line-oriented console for sending messages and
// triggering encounters with peers.
//
// Usage:
//
//	dtnnode -id alice -addr user:alice -listen 127.0.0.1:7701 \
//	        -peers 127.0.0.1:7702,127.0.0.1:7703 -policy epidemic \
//	        -data alice.wal -debug-addr 127.0.0.1:8701
//
// Console commands (stdin):
//
//	send <to-address> <text...>   insert a message
//	sync                          encounter every configured peer once
//	inbox                         list received messages
//	stats                         print replication counters
//	quit
//
// With -sync-every set, the node also encounters its peers periodically in
// the background, making a small always-on gossip mesh. With -data set, the
// replica state (items, knowledge, routing state) is journaled to a
// write-ahead log in that directory as each mutation happens, so a restarted
// node — even one that was killed — never re-accepts messages it already
// received.
//
// With -debug-addr set, the node serves an HTTP observability endpoint:
// /metrics (counters, gauges, histograms, and recent sync spans as JSON),
// /healthz, /peers, /debug/vars (expvar), and /debug/pprof/* (see debug.go
// for the response schemas).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"replidtn/internal/discovery"
	"replidtn/internal/messaging"
	"replidtn/internal/obs"
	"replidtn/internal/persist/wal"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/epidemic"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/spraywait"
	"replidtn/internal/transport"
	"replidtn/internal/vclock"
)

func main() {
	var (
		id         = flag.String("id", "", "replica ID (required)")
		addr       = flag.String("addr", "", "endpoint address homed on this node (required)")
		listen     = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		peers      = flag.String("peers", "", "comma-separated peer TCP addresses")
		policy     = flag.String("policy", "epidemic", "routing policy: none, epidemic, spray, prophet, maxprop")
		syncEvery  = flag.Duration("sync-every", 0, "background encounter period (0 = manual only)")
		dataPath   = flag.String("data", "", "write-ahead log directory for durable state (empty = in-memory only)")
		discListen = flag.String("discover-listen", "", "UDP address for peer discovery beacons (empty = disabled)")
		discPeers  = flag.String("discover-peers", "", "comma-separated UDP beacon targets")
		debugAddr  = flag.String("debug-addr", "", "HTTP address for /metrics, /healthz, /peers, /debug/* (empty = disabled)")
		summaries  = flag.Bool("summaries", false, "enable the compact knowledge summary sync protocol (recurring-pair knowledge deltas in place of exact knowledge)")
	)
	flag.Parse()
	if *id == "" || *addr == "" {
		fmt.Fprintln(os.Stderr, "dtnnode: -id and -addr are required")
		os.Exit(2)
	}
	opts := options{
		id: *id, addr: *addr, listen: *listen, peers: splitPeers(*peers),
		policy: *policy, syncEvery: *syncEvery, dataPath: *dataPath,
		discoverListen: *discListen, discoverPeers: splitPeers(*discPeers),
		debugAddr: *debugAddr, syncOnDiscover: true,
		summaries: *summaries,
	}
	if err := run(opts); err != nil {
		fmt.Fprintf(os.Stderr, "dtnnode: %v\n", err)
		os.Exit(1)
	}
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func buildPolicy(name, id, addr string) (routing.Policy, error) {
	now := func() int64 { return time.Now().Unix() }
	switch name {
	case "none":
		return nil, nil
	case "epidemic":
		return epidemic.New(0), nil
	case "spray":
		return spraywait.New(0), nil
	case "prophet":
		return prophet.New(prophet.DefaultParams(), now, addr), nil
	case "maxprop":
		return maxprop.New(vclock.ReplicaID(id), 0, now, addr), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// options collects the node's flag values.
type options struct {
	id, addr, listen string
	peers            []string
	policy           string
	syncEvery        time.Duration
	dataPath         string
	discoverListen   string
	discoverPeers    []string
	debugAddr        string
	// syncOnDiscover triggers an immediate encounter when discovery reports a
	// fresh peer. On for the CLI; tests disable it to drive syncs explicitly.
	syncOnDiscover bool
	// summaries enables the compact knowledge summary sync protocol.
	summaries bool
	// out receives console and status output (nil = os.Stdout).
	out io.Writer
}

// node is one running dtnnode: the messaging endpoint, its transport server,
// optional discovery and debug HTTP servers, and the shared metrics they all
// report into. Built by newNode, torn down by close.
type node struct {
	opts    options
	metrics *obs.NodeMetrics
	ep      *messaging.Endpoint
	srv     *transport.Server
	dialer  transport.Dialer
	bound   net.Addr
	disc    *discovery.Discoverer
	debug   *debugServer
	db      *wal.DB
	save    func()
	started time.Time
	out     io.Writer
}

// newNode builds and starts every subsystem: restores durable state, listens
// for encounters, and (when configured) launches discovery beacons and the
// debug HTTP endpoint. The caller owns the result and must close it.
func newNode(opts options) (n *node, err error) {
	pol, err := buildPolicy(opts.policy, opts.id, opts.addr)
	if err != nil {
		return nil, err
	}
	n = &node{
		opts:    opts,
		metrics: &obs.NodeMetrics{},
		save:    func() {},
		started: time.Now(),
		out:     opts.out,
	}
	if n.out == nil {
		n.out = os.Stdout
	}
	// Capture the node now: `return nil, err` zeroes the named return before
	// this deferred cleanup runs, so closing through n would nil-deref.
	defer func(built *node) {
		if err != nil {
			built.close()
		}
	}(n)
	n.ep = messaging.NewEndpoint(messaging.Config{
		NodeID:        vclock.ReplicaID(opts.id),
		Addresses:     []string{opts.addr},
		Policy:        pol,
		Now:           func() int64 { return time.Now().Unix() },
		Metrics:       &n.metrics.Replica,
		StoreMetrics:  &n.metrics.Store,
		SyncSummaries: opts.summaries,
		OnReceive: func(r messaging.Received) {
			fmt.Fprintf(n.out, "<< message from %s: %s\n", r.Message.From, r.Message.Body)
		},
	})
	if opts.dataPath != "" {
		fsys, err := wal.NewOSFS(opts.dataPath)
		if err != nil {
			return nil, err
		}
		db, err := wal.Open(fsys, wal.Options{Metrics: &n.metrics.WAL})
		if err != nil {
			return nil, err
		}
		n.db = db
		if snap, err := db.Load(); err == nil {
			if err := n.ep.Replica().RestoreSnapshot(snap); err != nil {
				return nil, fmt.Errorf("restore %s: %w", opts.dataPath, err)
			}
			fmt.Fprintf(n.out, "restored state from %s\n", opts.dataPath)
		} else if !errors.Is(err, wal.ErrNoState) {
			return nil, err
		}
		// Every mutation is journaled from here on; the checkpoints below
		// only persist routing state and bound the next restart's replay.
		if err := db.Attach(n.ep.Replica()); err != nil {
			return nil, err
		}
		n.save = func() {
			if err := db.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "!! persist: %v\n", err)
			}
		}
	}

	n.srv = transport.NewServer(n.ep.Replica(), 0)
	n.srv.OnError = func(err error) { fmt.Fprintf(os.Stderr, "!! %v\n", err) }
	n.srv.Metrics = &n.metrics.Transport
	if n.bound, err = n.srv.Listen(opts.listen); err != nil {
		return nil, err
	}

	if opts.discoverListen != "" {
		n.disc = discovery.New(discovery.Config{
			Self:    vclock.ReplicaID(opts.id),
			TCPAddr: n.bound.String(),
			Listen:  opts.discoverListen,
			Targets: opts.discoverPeers,
			Metrics: &n.metrics.Discovery,
			OnPeer: func(p discovery.Peer) {
				fmt.Fprintf(n.out, "** discovered %s at %s\n", p.ID, p.Addr)
				if opts.syncOnDiscover {
					if _, err := n.encounter(p.Addr); err != nil {
						fmt.Fprintf(os.Stderr, "!! sync %s: %v\n", p.Addr, err)
					}
				}
			},
		})
		udpAddr, err := n.disc.Start()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(n.out, "discovery beacons on %s\n", udpAddr)
	}

	if opts.debugAddr != "" {
		if n.debug, err = startDebug(opts.debugAddr, n); err != nil {
			return nil, err
		}
		fmt.Fprintf(n.out, "debug endpoint on http://%s/metrics\n", n.debug.addr)
	}
	return n, nil
}

// close tears down whatever newNode started, saving durable state last.
func (n *node) close() {
	if n.debug != nil {
		n.debug.close()
	}
	if n.disc != nil {
		n.disc.Stop()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	n.dialer.Close()
	if n.db != nil {
		if err := n.db.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "!! persist: %v\n", err)
		}
	}
}

// encounter dials one peer with the node's transport metrics attached.
func (n *node) encounter(addr string) (replica.EncounterResult, error) {
	return n.dialer.Encounter(n.ep.Replica(), addr, 0, 5*time.Second,
		transport.DialOptions{Metrics: &n.metrics.Transport})
}

// syncAll encounters every configured and discovered peer once.
func (n *node) syncAll() {
	targets := append([]string(nil), n.opts.peers...)
	if n.disc != nil {
		targets = append(targets, n.disc.Addrs()...)
	}
	for _, peer := range targets {
		if _, err := n.encounter(peer); err != nil {
			fmt.Fprintf(os.Stderr, "!! sync %s: %v\n", peer, err)
		}
	}
	n.save()
}

func run(opts options) error {
	n, err := newNode(opts)
	if err != nil {
		return err
	}
	defer n.close()
	fmt.Fprintf(n.out, "node %s (%s, policy %s) listening on %s\n",
		opts.id, opts.addr, opts.policy, n.bound)

	if opts.syncEvery > 0 {
		// Deferred after n.close, so it runs first: the node is torn down
		// only once no background sync is in flight.
		stop := every(opts.syncEvery, n.syncAll)
		defer stop()
	}
	return n.console(os.Stdin)
}

// every calls f once per period on a goroutine of its own until the returned
// stop function is called. stop returns once that goroutine has exited, so no
// call of f is in flight or still to come. (A ticker's channel is never
// closed, so a range over it alone would never end.)
func every(period time.Duration, f func()) (stop func()) {
	ticker := time.NewTicker(period)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-ticker.C:
				f()
			case <-done:
				return
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(done)
		<-exited
	}
}

// console runs the interactive command loop until quit or EOF.
func (n *node) console(in io.Reader) error {
	sc := bufio.NewScanner(in)
	fmt.Fprint(n.out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(n.out, "> ")
			continue
		}
		switch fields[0] {
		case "send":
			if len(fields) < 3 {
				fmt.Fprintln(n.out, "usage: send <to-address> <text...>")
				break
			}
			body := strings.Join(fields[2:], " ")
			if _, err := n.ep.Send(n.opts.addr, []string{fields[1]}, []byte(body)); err != nil {
				fmt.Fprintf(n.out, "!! %v\n", err)
			} else {
				n.save()
				fmt.Fprintln(n.out, "queued")
			}
		case "sync":
			n.syncAll()
			fmt.Fprintln(n.out, "synced")
		case "inbox":
			for i, r := range n.ep.Inbox() {
				fmt.Fprintf(n.out, "%3d %s -> %s: %s\n", i+1, r.Message.From, r.At, r.Message.Body)
			}
		case "stats":
			fmt.Fprintf(n.out, "%+v\n", n.ep.Replica().Stats())
		case "quit", "exit":
			return nil
		default:
			fmt.Fprintln(n.out, "commands: send, sync, inbox, stats, quit")
		}
		fmt.Fprint(n.out, "> ")
	}
	return sc.Err()
}
