package mobility

import (
	"fmt"

	"replidtn/internal/trace"
)

// Community generates a home-cell mobility trace: the playground is divided
// into cells×cells districts, each node is anchored to one of them, and with
// probability homeBias a waypoint is drawn inside the home district rather
// than anywhere. The result is the clustered, recurrent contact structure of
// human mobility — nodes meet their neighbors often and strangers rarely —
// which is where community-aware forwarding differs most from uniform
// mixing.
func Community(cfg Common, cells int, homeBias float64) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cells < 1 {
		return nil, fmt.Errorf("mobility: community needs at least 1 cell, have %d", cells)
	}
	if homeBias < 0 || homeBias > 1 {
		return nil, fmt.Errorf("mobility: home bias %v outside [0, 1]", homeBias)
	}
	home := homes(cfg, cells)
	side := cfg.side()
	cell := side / float64(cells)
	return generate("community", cfg, newWaypointSim(cfg, func(rng *uint64, i int) (float64, float64) {
		if unitRand(rng) < homeBias {
			h := home[i]
			hx, hy := float64(h%cells), float64(h/cells)
			return (hx + unitRand(rng)) * cell, (hy + unitRand(rng)) * cell
		}
		return unitRand(rng) * side, unitRand(rng) * side
	}))
}

// homes assigns each node its home district, drawn from the scenario seed.
func homes(cfg Common, cells int) []int {
	rng := seedStream(cfg.Seed, homeStream)
	home := make([]int, cfg.Nodes)
	for i := range home {
		home[i] = intRand(&rng, cells*cells)
	}
	return home
}
