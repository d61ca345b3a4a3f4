package mobility

import (
	"math"

	"replidtn/internal/trace"
)

// RWP generates a random-waypoint trace: each node repeatedly picks a
// uniform destination in the playground and walks there at a per-leg
// uniform speed. It produces spatially homogeneous, memoryless contacts —
// the baseline against which the clustered community model is compared.
func RWP(cfg Common) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	side := cfg.side()
	return generate("rwp", cfg, newWaypointSim(cfg, func(rng *uint64, i int) (float64, float64) {
		return unitRand(rng) * side, unitRand(rng) * side
	}))
}

// waypointSim is the walk-to-target engine both models run; pick supplies
// the model-specific next destination.
type waypointSim struct {
	cfg   Common
	pick  func(rng *uint64, i int) (float64, float64)
	rng   []uint64
	x, y  []float64
	tx    []float64
	ty    []float64
	speed []float64
}

func newWaypointSim(cfg Common, pick func(rng *uint64, i int) (float64, float64)) *waypointSim {
	n := cfg.Nodes
	w := &waypointSim{
		cfg: cfg, pick: pick,
		rng: make([]uint64, n),
		x:   make([]float64, n), y: make([]float64, n),
		tx: make([]float64, n), ty: make([]float64, n),
		speed: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		w.rng[i] = seedStream(cfg.Seed, uint64(i))
		// Start at a model-chosen point (for the community model this
		// clusters the initial placement like the steady state).
		w.x[i], w.y[i] = pick(&w.rng[i], i)
		w.retarget(i)
	}
	return w
}

func (w *waypointSim) retarget(i int) {
	w.tx[i], w.ty[i] = w.pick(&w.rng[i], i)
	w.speed[i] = spanRand(&w.rng[i], w.cfg.SpeedMin, w.cfg.SpeedMax)
}

// step advances node i across dt seconds and reports its new position.
func (w *waypointSim) step(i int, dt float64) (float64, float64) {
	dx, dy := w.tx[i]-w.x[i], w.ty[i]-w.y[i]
	distSq := dx*dx + dy*dy
	travel := w.speed[i] * dt
	if travel*travel >= distSq {
		// Arrived: snap to the waypoint and choose the next leg. The
		// leftover tick time is dropped — a standard discrete-time
		// approximation that keeps the step O(1).
		w.x[i], w.y[i] = w.tx[i], w.ty[i]
		w.retarget(i)
		return w.x[i], w.y[i]
	}
	frac := travel / math.Sqrt(distSq)
	w.x[i] += dx * frac
	w.y[i] += dy * frac
	return w.x[i], w.y[i]
}
