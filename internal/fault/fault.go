// Package fault is the deterministic fault-injection layer for
// disruption-realistic emulation. Real DTN contacts are short, lossy radio
// encounters: transfers get cut off mid-flight, contacts predicted by the
// trace never materialize, and nodes crash and restart from persisted state.
// This package decides, reproducibly, which faults strike which encounters.
//
// Every decision is a pure function of (seed, encounter index): it is derived
// by hashing rather than by drawing from a shared sequential RNG. That makes
// the fault plan independent of execution order: a faulted run is
// reproducible from its Config alone.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Config parameterizes fault injection. The zero value disables every fault:
// an emulation run with a zero Config is byte-identical to a fault-free run.
type Config struct {
	// Seed selects the fault plan. Two runs with equal Config produce
	// identical faults; changing Seed reshuffles which encounters are struck
	// without changing the expected fault rates.
	Seed int64
	// Drop is the per-encounter probability that the contact never happens at
	// all (the radio link failed to form). Dropped encounters perform no
	// synchronization and move no data.
	Drop float64
	// Cutoff is the per-encounter probability that the link dies mid-encounter.
	// A cut encounter delivers at most CutoffItems batch items before the link
	// fails; an interrupted batch is discarded transactionally by the target.
	Cutoff float64
	// CutoffItems is the item budget a cut link delivers before dying. The
	// actual cut point is drawn uniformly from [0, CutoffItems] per encounter,
	// so some cut contacts die almost immediately and others nearly complete.
	CutoffItems int
	// Crash is the per-endpoint, per-encounter probability that the node
	// crashes immediately after the encounter and restarts from its persisted
	// state (snapshot round-trip through the internal/persist codec).
	Crash float64
}

// Enabled reports whether any fault can ever fire under this configuration.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Cutoff > 0 || c.Crash > 0
}

// String renders the configuration in the same key=value form Parse accepts
// (seed excluded; it travels separately).
func (c Config) String() string {
	var parts []string
	if c.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", c.Drop))
	}
	if c.Cutoff > 0 {
		parts = append(parts, fmt.Sprintf("cutoff=%g", c.Cutoff))
		parts = append(parts, fmt.Sprintf("cutoff-items=%d", c.CutoffItems))
	}
	if c.Crash > 0 {
		parts = append(parts, fmt.Sprintf("crash=%g", c.Crash))
	}
	if len(parts) == 0 {
		return "off"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Parse builds a Config from a comma-separated key=value spec, e.g.
// "drop=0.3,cutoff=0.25,cutoff-items=2,crash=0.01". Unknown keys and
// out-of-range values are errors. An empty spec is the zero (disabled)
// Config. The seed is not part of the spec; set Config.Seed separately.
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: %q is not key=value", kv)
		}
		switch key {
		case "drop", "cutoff", "crash":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return Config{}, fmt.Errorf("fault: %s=%q is not a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				c.Drop = p
			case "cutoff":
				c.Cutoff = p
			case "crash":
				c.Crash = p
			}
		case "cutoff-items":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Config{}, fmt.Errorf("fault: cutoff-items=%q is not a non-negative integer", val)
			}
			c.CutoffItems = n
		default:
			return Config{}, fmt.Errorf("fault: unknown key %q (want drop, cutoff, cutoff-items, crash)", key)
		}
	}
	return c, nil
}

// Decision is the fault outcome for one encounter.
type Decision struct {
	// Drop suppresses the encounter entirely.
	Drop bool
	// Cutoff is the number of batch items the link delivers before dying,
	// counted across both synchronization legs. Negative means the link is
	// reliable for this encounter.
	Cutoff int
	// CrashA and CrashB schedule a crash-restart of the respective endpoint
	// immediately after the encounter.
	CrashA, CrashB bool
}

// Reliable is the no-fault decision.
func Reliable() Decision { return Decision{Cutoff: -1} }

// Faulted reports whether any fault struck this encounter.
func (d Decision) Faulted() bool {
	return d.Drop || d.Cutoff >= 0 || d.CrashA || d.CrashB
}

// Plan derives per-encounter fault decisions for one run. A nil *Plan is
// valid and means faults are disabled.
type Plan struct {
	cfg Config
}

// NewPlan builds the fault plan for cfg, or nil when cfg disables all faults
// — callers can branch on the nil plan to keep the fault-free hot path
// untouched.
func NewPlan(cfg Config) *Plan {
	if !cfg.Enabled() {
		return nil
	}
	return &Plan{cfg: cfg}
}

// Config returns the plan's configuration (the zero Config for a nil plan).
func (p *Plan) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// Independent hash streams per fault dimension, so e.g. raising the drop
// probability never changes which encounters are cut off or crash.
const (
	streamDrop uint64 = iota + 1
	streamCutoff
	streamCutoffPoint
	streamCrashA
	streamCrashB
)

// Encounter returns the decision for the index-th encounter of the trace.
// It is a pure function of (plan seed, index): calling it in any order, from
// any goroutine, yields the same answer.
func (p *Plan) Encounter(index int) Decision {
	if p == nil {
		return Reliable()
	}
	d := Reliable()
	if p.cfg.Drop > 0 && p.float(index, streamDrop) < p.cfg.Drop {
		d.Drop = true
		return d
	}
	if p.cfg.Cutoff > 0 && p.float(index, streamCutoff) < p.cfg.Cutoff {
		d.Cutoff = p.intn(index, streamCutoffPoint, p.cfg.CutoffItems+1)
	}
	if p.cfg.Crash > 0 {
		d.CrashA = p.float(index, streamCrashA) < p.cfg.Crash
		d.CrashB = p.float(index, streamCrashB) < p.cfg.Crash
	}
	return d
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed bijection on
// 64-bit values used to turn (seed, index, stream) into an independent
// uniform draw.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// u64 hashes (seed, index, stream) to a uniform 64-bit value.
func (p *Plan) u64(index int, stream uint64) uint64 {
	h := uint64(p.cfg.Seed) * 0x9e3779b97f4a7c15
	h = mix64(h ^ mix64(uint64(index)+0x632be59bd9b4e019))
	return mix64(h ^ mix64(stream*0xd1b54a32d192ed03))
}

// float hashes to a uniform float64 in [0, 1).
func (p *Plan) float(index int, stream uint64) float64 {
	return float64(p.u64(index, stream)>>11) / (1 << 53)
}

// intn hashes to a uniform int in [0, n).
func (p *Plan) intn(index int, stream uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(p.u64(index, stream) % uint64(n))
}
