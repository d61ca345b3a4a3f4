package mobility

import (
	"fmt"
	"strconv"
	"strings"

	"replidtn/internal/trace"
)

// Parse builds the trace a compact scenario spec string describes. The
// format is model:key=value,... — for example:
//
//	rwp:n=1000,seed=7
//	community:n=500,days=3,cells=6,bias=0.9
//	dieselnet:seed=3,days=17
//	dir:/path/to/trace
//
// Shared keys for the mobility models (rwp, community): n (node count),
// days, seed, area (meters; 0 auto-scales), spacing, range, speed (min-max
// band, e.g. speed=2-12), tick, active (daily window seconds), users, msgs,
// injectdays. dieselnet accepts seed, days, fleet, users, msgs. dir takes a
// trace directory path instead of key=value pairs.
func Parse(spec string) (*trace.Trace, error) {
	model, rest, _ := strings.Cut(spec, ":")
	switch model {
	case "dir":
		if rest == "" {
			return nil, fmt.Errorf("mobility: dir spec needs a path, e.g. dir:/data/trace")
		}
		return trace.LoadDir(rest)
	case "dieselnet":
		return parseDieselNet(rest)
	case "rwp", "community":
		return parseMobility(model, rest)
	default:
		return nil, fmt.Errorf("mobility: unknown scenario model %q (want rwp, community, dieselnet, or dir)", model)
	}
}

func parseDieselNet(rest string) (*trace.Trace, error) {
	dn := trace.DefaultDieselNet()
	wl := trace.DefaultWorkload()
	err := eachKV(rest, func(key, val string) error {
		switch key {
		case "seed":
			s, err := parseInt64(key, val)
			if err != nil {
				return err
			}
			dn.Seed, wl.Seed = s, s+1
		case "days":
			d, err := parsePosInt(key, val)
			if err != nil {
				return err
			}
			dn.Days = d
			if wl.InjectDays > d {
				wl.InjectDays = d
			}
		case "fleet":
			f, err := parsePosInt(key, val)
			if err != nil {
				return err
			}
			dn.FleetSize = f
			if dn.ActivePerDay > f {
				dn.ActivePerDay = f
			}
		case "users":
			u, err := parsePosInt(key, val)
			if err != nil {
				return err
			}
			wl.Users = u
		case "msgs":
			m, err := parsePosInt(key, val)
			if err != nil {
				return err
			}
			wl.Messages = m
		default:
			return fmt.Errorf("mobility: dieselnet: unknown key %q (want seed, days, fleet, users, msgs)", key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return trace.Generate(dn, wl, dn.Seed)
}

func parseMobility(model, rest string) (*trace.Trace, error) {
	cfg := Defaults()
	cells, bias := 4, 0.8
	err := eachKV(rest, func(key, val string) error {
		var err error
		switch key {
		case "n":
			cfg.Nodes, err = parsePosInt(key, val)
		case "days":
			cfg.Days, err = parsePosInt(key, val)
			if err == nil && cfg.InjectDays > cfg.Days {
				cfg.InjectDays = cfg.Days
			}
		case "seed":
			cfg.Seed, err = parseInt64(key, val)
		case "area":
			cfg.Area, err = parseFloat(key, val)
		case "spacing":
			cfg.Spacing, err = parseFloat(key, val)
		case "range":
			cfg.Range, err = parseFloat(key, val)
		case "speed":
			lo, hi, ok := strings.Cut(val, "-")
			if !ok {
				return fmt.Errorf("mobility: speed wants a min-max band like speed=2-12, have %q", val)
			}
			if cfg.SpeedMin, err = parseFloat(key, lo); err != nil {
				return err
			}
			cfg.SpeedMax, err = parseFloat(key, hi)
		case "tick":
			var t int
			t, err = parsePosInt(key, val)
			cfg.TickSeconds = int64(t)
		case "active":
			var a int
			a, err = parsePosInt(key, val)
			cfg.ActiveSeconds = int64(a)
		case "users":
			cfg.Users, err = parsePosInt(key, val)
		case "msgs":
			cfg.Messages, err = parsePosInt(key, val)
		case "injectdays":
			cfg.InjectDays, err = parsePosInt(key, val)
		case "cells":
			if model != "community" {
				return fmt.Errorf("mobility: key %q only applies to community", key)
			}
			cells, err = parsePosInt(key, val)
		case "bias":
			if model != "community" {
				return fmt.Errorf("mobility: key %q only applies to community", key)
			}
			bias, err = parseFloat(key, val)
		default:
			return fmt.Errorf("mobility: %s: unknown key %q (want n, days, seed, area, spacing, range, speed, tick, active, users, msgs, injectdays%s)",
				model, key, modelKeys(model))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if model == "rwp" {
		return RWP(cfg)
	}
	return Community(cfg, cells, bias)
}

func modelKeys(model string) string {
	if model == "community" {
		return ", cells, bias"
	}
	return ""
}

// eachKV walks comma-separated key=value pairs in order (no map, so error
// reporting and any future order-sensitive keys stay deterministic).
func eachKV(rest string, fn func(key, val string) error) error {
	if rest == "" {
		return nil
	}
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(pair, "=")
		if !ok || key == "" || val == "" {
			return fmt.Errorf("mobility: malformed option %q (want key=value)", pair)
		}
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}

func parsePosInt(key, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("mobility: %s wants a positive integer, have %q", key, val)
	}
	return n, nil
}

func parseInt64(key, val string) (int64, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("mobility: %s wants an integer, have %q", key, val)
	}
	return n, nil
}

func parseFloat(key, val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("mobility: %s wants a non-negative number, have %q", key, val)
	}
	return f, nil
}
