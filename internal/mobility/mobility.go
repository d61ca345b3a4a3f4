// Package mobility provides deterministic synthetic mobility scenarios for
// the emulation engine: random-waypoint and community (home-cell) models.
// Each model simulates node movement on a square area in discrete ticks,
// detects radio contacts with a uniform grid, and returns the contact starts
// and a message workload as one validated *trace.Trace.
//
// Determinism is a hard requirement (differential tests replay scenarios and
// compare engine output byte for byte), so every draw comes from per-node
// splitmix64 streams derived from the scenario seed; the package never
// touches wall clocks or global randomness, and dtnlint's determinism
// analyzer enforces that mechanically.
package mobility

import (
	"fmt"
	"math"
	"sort"

	"replidtn/internal/trace"
)

// Common holds the parameters shared by every mobility model. The zero value
// is not usable; start from Defaults.
type Common struct {
	Nodes int   // fleet size
	Days  int   // experiment length in days
	Seed  int64 // root of every random draw in the scenario

	// Geometry. Area is the side of the square playground in meters; 0
	// auto-scales it to sqrt(Nodes)*Spacing so node density — and with it
	// the per-node contact rate — stays constant as the fleet grows.
	Area    float64
	Spacing float64 // meters of side per sqrt(node) when Area is 0
	Range   float64 // radio range in meters

	// Kinematics. Node speeds are drawn uniformly from [SpeedMin, SpeedMax].
	SpeedMin float64 // m/s
	SpeedMax float64 // m/s

	// TickSeconds is the contact-detection timestep. ActiveSeconds bounds
	// the daily operating window (like the DieselNet service day): contacts
	// are only detected during the first ActiveSeconds of each day.
	TickSeconds   int64
	ActiveSeconds int64

	// Workload: Messages injections between Users endpoints during the
	// first InjectDays days. Users ride fixed nodes (user i on node i mod
	// Nodes) for the whole experiment.
	Users      int
	Messages   int
	InjectDays int
}

// Defaults returns a small but non-trivial parameterization: a sparse
// DTN-like density (≈0.03 expected neighbors per node) over a 4-hour daily
// window.
func Defaults() Common {
	return Common{
		Nodes:         50,
		Days:          1,
		Seed:          1,
		Spacing:       1000,
		Range:         100,
		SpeedMin:      1,
		SpeedMax:      10,
		TickSeconds:   60,
		ActiveSeconds: 4 * 3600,
		Users:         20,
		Messages:      100,
		InjectDays:    1,
	}
}

func (c Common) validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("mobility: need at least 2 nodes, have %d", c.Nodes)
	case c.Days < 1:
		return fmt.Errorf("mobility: need at least 1 day, have %d", c.Days)
	case c.Range <= 0:
		return fmt.Errorf("mobility: radio range must be positive, have %v", c.Range)
	case c.Area < 0 || (c.Area == 0 && c.Spacing <= 0):
		return fmt.Errorf("mobility: need a positive area or spacing")
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("mobility: invalid speed band [%v, %v]", c.SpeedMin, c.SpeedMax)
	case c.TickSeconds <= 0:
		return fmt.Errorf("mobility: tick must be positive, have %d", c.TickSeconds)
	case c.ActiveSeconds <= 0 || c.ActiveSeconds > trace.SecondsPerDay:
		return fmt.Errorf("mobility: daily window %d outside (0, %d]", c.ActiveSeconds, trace.SecondsPerDay)
	case c.Users < 2:
		return fmt.Errorf("mobility: need at least 2 users, have %d", c.Users)
	case c.Messages < 0:
		return fmt.Errorf("mobility: negative message count %d", c.Messages)
	case c.InjectDays < 1 || c.InjectDays > c.Days:
		return fmt.Errorf("mobility: inject days %d outside [1, %d]", c.InjectDays, c.Days)
	}
	return nil
}

// side resolves the playground side length, auto-scaling for constant
// density when Area is unset.
func (c Common) side() float64 {
	if c.Area > 0 {
		return c.Area
	}
	return math.Sqrt(float64(c.Nodes)) * c.Spacing
}

// splitmix64: the per-node PRNG. One uint64 of state per stream keeps
// 100k-node scenarios at 8 bytes of generator state per node (a rand.Rand
// is ~5KB), and advancing a stream is a handful of integer ops.
func nextRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unitRand draws a float64 in [0, 1).
func unitRand(state *uint64) float64 {
	return float64(nextRand(state)>>11) / (1 << 53)
}

// spanRand draws uniformly from [lo, hi).
func spanRand(state *uint64, lo, hi float64) float64 {
	return lo + unitRand(state)*(hi-lo)
}

// intRand draws uniformly from [0, n).
func intRand(state *uint64, n int) int {
	return int(nextRand(state) % uint64(n))
}

// seedStream derives an independent splitmix64 state for stream i of the
// scenario seed.
func seedStream(seed int64, i uint64) uint64 {
	s := uint64(seed) ^ 0x6a09e667f3bcc909
	s += 0x9e3779b97f4a7c15 * (i + 1)
	z := (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 27)
}

// workloadStream and homeStream are reserved stream indices past the
// per-node movement streams (node i uses stream i).
const (
	workloadStream = 1 << 40
	homeStream     = 1<<40 + 1
)

// nodeNames builds the zero-padded fleet roster; padding makes index order
// and lexicographic order coincide, so pair emission sorted by index is
// also sorted by name.
func nodeNames(n int) []string {
	width := len(fmt.Sprint(n - 1))
	if width < 3 {
		width = 3
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%0*d", width, i)
	}
	return out
}

func userNames(n int) []string {
	width := len(fmt.Sprint(n - 1))
	if width < 3 {
		width = 3
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("u%0*d", width, i)
	}
	return out
}

// generate runs one movement model and assembles its trace. Synthetic
// fleets have no DieselNet-style duty rotation, so every node is rostered
// every day, and user i rides node i mod Nodes for the whole experiment.
func generate(name string, cfg Common, w *waypointSim) (*trace.Trace, error) {
	nodes, users := nodeNames(cfg.Nodes), userNames(cfg.Users)
	tr := &trace.Trace{
		Days:       cfg.Days,
		Buses:      nodes,
		Users:      users,
		Encounters: contacts(cfg, nodes, w),
		Messages:   messages(cfg, users),
		Roster:     make([][]string, cfg.Days),
		Assignment: make([]map[string]string, cfg.Days),
	}
	for d := range tr.Roster {
		tr.Roster[d] = nodes
		asg := make(map[string]string, len(users))
		for i, u := range users {
			asg[u] = nodes[i%len(nodes)]
		}
		tr.Assignment[d] = asg
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: %s: %w", name, err)
	}
	return tr, nil
}

// messages draws the injection schedule: times uniform over the daily
// operating windows of the first InjectDays days, sorted, with endpoints
// drawn per message.
func messages(cfg Common, users []string) []trace.Message {
	rng := seedStream(cfg.Seed, workloadStream)
	times := make([]int64, cfg.Messages)
	for i := range times {
		day := int64(intRand(&rng, cfg.InjectDays))
		times[i] = day*trace.SecondsPerDay + int64(nextRand(&rng)%uint64(cfg.ActiveSeconds))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	width := len(fmt.Sprint(cfg.Messages))
	if width < 4 {
		width = 4
	}
	var out []trace.Message
	for i, t := range times {
		from := intRand(&rng, len(users))
		to := intRand(&rng, len(users)-1)
		if to >= from {
			to++
		}
		out = append(out, trace.Message{
			ID:   fmt.Sprintf("m%0*d", width, i+1),
			Time: t,
			From: users[from],
			To:   users[to],
		})
	}
	return out
}

// contacts runs the discrete-time simulation and returns contact-start
// events in (time, A, B) order. A uniform hash grid with cell size equal to
// the radio range bounds the pair search to the 3×3 neighborhood, keeping
// each tick O(nodes) regardless of area.
func contacts(cfg Common, names []string, w *waypointSim) []trace.Encounter {
	g := newGrid(cfg.Nodes, cfg.side(), cfg.Range)
	dt := float64(cfg.TickSeconds)
	lastSeen := make(map[uint64]int64)
	var pairs []uint64
	var out []trace.Encounter
	tick := int64(0)
	for day := 0; day < cfg.Days; day++ {
		for off := int64(0); off < cfg.ActiveSeconds; off += cfg.TickSeconds {
			tick++
			now := int64(day)*trace.SecondsPerDay + off
			g.reset()
			for i := 0; i < cfg.Nodes; i++ {
				x, y := w.step(i, dt)
				g.insert(int32(i), x, y)
			}
			pairs = g.collectPairs(pairs[:0])
			// Sort by packed (i, j) key: with zero-padded names this is
			// also (A, B) name order, so emission within a tick is
			// deterministic and lexicographic.
			sort.Slice(pairs, func(a, b int) bool { return pairs[a] < pairs[b] })
			for _, p := range pairs {
				seen, ok := lastSeen[p]
				lastSeen[p] = tick
				if ok && seen == tick-1 {
					continue // contact continuing since last tick
				}
				out = append(out, trace.Encounter{Time: now, A: names[p>>32], B: names[uint32(p)]})
			}
		}
	}
	return out
}

// grid is an open-addressed hash table from occupied cell to a chain of
// node indices, rebuilt every tick with generation stamps instead of
// clearing. Memory is O(nodes), not O(area/range²), which matters once
// auto-scaled playgrounds reach millions of cells.
type grid struct {
	cell    float64
	n       int
	mask    uint64
	keys    []uint64 // packed (cx, cy)
	heads   []int32
	stamps  []int64
	slots   []int32 // occupied slots this generation
	next    []int32 // per-node chain links
	cellOf  []uint64
	posX    []float64
	posY    []float64
	gen     int64
	rangeSq float64
}

func newGrid(n int, side, radio float64) *grid {
	capacity := uint64(8)
	for capacity < uint64(2*n) {
		capacity *= 2
	}
	return &grid{
		cell:    radio,
		n:       n,
		mask:    capacity - 1,
		keys:    make([]uint64, capacity),
		heads:   make([]int32, capacity),
		stamps:  make([]int64, capacity),
		next:    make([]int32, n),
		cellOf:  make([]uint64, n),
		posX:    make([]float64, n),
		posY:    make([]float64, n),
		rangeSq: radio * radio,
	}
}

func (g *grid) reset() {
	g.gen++
	g.slots = g.slots[:0]
}

func packCell(cx, cy int32) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

func hashCell(key uint64) uint64 {
	key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9
	return key ^ (key >> 27)
}

// slot finds (or claims, when claim is set) the table slot for a cell key,
// returning -1 for an absent cell on lookup.
func (g *grid) slot(key uint64, claim bool) int64 {
	h := hashCell(key) & g.mask
	for {
		if g.stamps[h] != g.gen {
			if !claim {
				return -1
			}
			g.stamps[h] = g.gen
			g.keys[h] = key
			g.heads[h] = -1
			g.slots = append(g.slots, int32(h))
			return int64(h)
		}
		if g.keys[h] == key {
			return int64(h)
		}
		h = (h + 1) & g.mask
	}
}

func (g *grid) insert(i int32, x, y float64) {
	g.posX[i], g.posY[i] = x, y
	key := packCell(int32(x/g.cell), int32(y/g.cell))
	g.cellOf[i] = key
	s := g.slot(key, true)
	g.next[i] = g.heads[s]
	g.heads[s] = i
}

// collectPairs appends the packed (i<<32 | j), i < j, key of every node
// pair within radio range this tick. Each unordered cell pair is visited
// once (same cell, plus the half neighborhood E/N/NE/SE), so no pair is
// reported twice.
func (g *grid) collectPairs(pairs []uint64) []uint64 {
	for _, s := range g.slots {
		key := g.keys[s]
		cx, cy := int32(key>>32), int32(uint32(key))
		for a := g.heads[s]; a >= 0; a = g.next[a] {
			for b := g.next[a]; b >= 0; b = g.next[b] {
				if g.close(a, b) {
					pairs = append(pairs, packPair(a, b))
				}
			}
		}
		for _, d := range [4][2]int32{{1, 0}, {0, 1}, {1, 1}, {1, -1}} {
			ns := g.slot(packCell(cx+d[0], cy+d[1]), false)
			if ns < 0 {
				continue
			}
			for a := g.heads[s]; a >= 0; a = g.next[a] {
				for b := g.heads[ns]; b >= 0; b = g.next[b] {
					if g.close(a, b) {
						pairs = append(pairs, packPair(a, b))
					}
				}
			}
		}
	}
	return pairs
}

func (g *grid) close(a, b int32) bool {
	dx := g.posX[a] - g.posX[b]
	dy := g.posY[a] - g.posY[b]
	return dx*dx+dy*dy <= g.rangeSq
}

func packPair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}
