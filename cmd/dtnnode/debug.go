// Debug HTTP endpoint for a live node, enabled with -debug-addr.
//
// Routes:
//
//	/metrics      metricsDoc as JSON: {"transport": {...}, "replica":
//	              {...}, "store": {...}, "discovery": {...}, "wal": {...},
//	              "spans": [...]} — counters, gauges, power-of-two
//	              histograms, and the most recent sync spans.
//	/healthz      {"status": "ok", "id": ..., "listen": ..., "uptime_s": ...}
//	/peers        {"configured": [...], "discovered": [{"id", "addr",
//	              "last_seen"}, ...]} — discovered is empty without -discover-listen.
//	/debug/vars   standard expvar dump; the node's metrics are published as
//	              "dtnnode.<id>".
//	/debug/pprof  the standard runtime profiles (heap, goroutine, profile, ...).
//
// The endpoint is read-only and unauthenticated: bind it to loopback or a
// trusted interface.
package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"replidtn/internal/discovery"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
)

// debugServer is the node's HTTP observability listener.
type debugServer struct {
	srv  *http.Server
	addr net.Addr
}

// startDebug binds addr and serves the debug routes for n in the background.
func startDebug(addr string, n *node) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listen %s: %w", addr, err)
	}
	publishExpvar(n)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.metricsDoc())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"status":   "ok",
			"id":       n.opts.id,
			"addr":     n.opts.addr,
			"listen":   n.bound.String(),
			"policy":   n.opts.policy,
			"uptime_s": int64(time.Since(n.started).Seconds()),
		})
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, peersView(n))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// The pprof handlers self-register on http.DefaultServeMux, which this
	// mux deliberately is not; mount them explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &debugServer{srv: &http.Server{Handler: mux}, addr: ln.Addr()}
	go d.srv.Serve(ln) // Serve returns ErrServerClosed after close; listen errors already surfaced
	return d, nil
}

func (d *debugServer) close() {
	d.srv.Close()
}

// publishExpvar exposes the node's metrics snapshot as the expvar
// "dtnnode.<id>". expvar panics on duplicate names, and its registry is
// process-global and append-only, so a same-named successor (a node restarted
// in-process, as tests do) keeps the first registration; /metrics always
// reflects the current node.
func publishExpvar(n *node) {
	name := "dtnnode." + n.opts.id
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return n.metricsDoc() }))
}

// metricsDoc is the /metrics document: the node's sinks, and the replica and
// store sections read from its replica's ledger.
type metricsDoc struct {
	obs.NodeSnapshot
	Replica replica.Stats      `json:"replica"`
	Store   replica.StoreStats `json:"store"`
}

func (n *node) metricsDoc() metricsDoc {
	st := n.ep.Replica().Stats()
	return metricsDoc{NodeSnapshot: n.metrics.Snapshot(), Replica: st, Store: st.Store()}
}

// peersView renders the node's view of its neighborhood: statically
// configured encounter addresses plus everything discovery currently sees.
func peersView(n *node) map[string]any {
	discovered := []map[string]any{}
	var peers []discovery.Peer
	if n.disc != nil {
		peers = n.disc.Peers()
	}
	for _, p := range peers {
		discovered = append(discovered, map[string]any{
			"id":        string(p.ID),
			"addr":      p.Addr,
			"last_seen": p.LastSeen.Format(time.RFC3339),
		})
	}
	configured := n.opts.peers
	if configured == nil {
		configured = []string{}
	}
	return map[string]any{"configured": configured, "discovered": discovered}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
