package maxprop

import (
	"fmt"
	"math"

	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// Requests and persisted state are written in the internal/wire layout (maps
// sorted by key, as they are kept), so identical state always serializes to
// identical bytes.

func appendRow(buf []byte, row Row) []byte {
	buf = sorted.Append(buf, row.Probabilities, prim.AppendFloat64)
	return prim.AppendVarint(buf, row.Updated)
}

// readTable decodes a meeting-probability table, rejecting row values
// outside [0, 1]: path costs are sums of 1 − f, so a forged probability
// above 1 would make a path through the forger look cheaper than free.
func readTable(d *prim.Decoder) sorted.Map[vclock.ReplicaID, Row] {
	return sorted.Read[vclock.ReplicaID](d, func() Row {
		return Row{
			Probabilities: sorted.Read[vclock.ReplicaID](d, d.Prob),
			Updated:       d.Varint(),
		}
	})
}

func appendHome(buf []byte, h Home) []byte {
	buf = prim.AppendString(buf, string(h.Node))
	return prim.AppendVarint(buf, h.Updated)
}

func readHomes(d *prim.Decoder) sorted.Map[string, Home] {
	return sorted.Read[string](d, func() Home {
		return Home{Node: vclock.ReplicaID(d.String()), Updated: d.Varint()}
	})
}

// AppendBinary appends the request: OwnAddresses, the table, then the
// address homes.
func (r *Request) AppendBinary(buf []byte) []byte {
	buf = prim.AppendStrings(buf, r.OwnAddresses)
	buf = sorted.Append(buf, r.Table, appendRow)
	return sorted.Append(buf, r.Homes, appendHome)
}

// DecodeRequest decodes a request written by AppendBinary.
func DecodeRequest(data []byte) (*Request, error) {
	d := prim.NewDecoder(data)
	req := &Request{
		OwnAddresses: d.Strings(),
		Table:        readTable(d),
		Homes:        readHomes(d),
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("maxprop: decode request: %w", err)
	}
	return req, nil
}

// stateVersion is the first byte of the persisted state document.
const stateVersion = 1

// SnapshotState implements routing.Persistent: the raw meeting weights, the
// learned probability table, and the address-home beliefs.
func (p *Policy) SnapshotState() ([]byte, error) {
	buf := sorted.Append([]byte{stateVersion}, p.weights, prim.AppendFloat64)
	buf = sorted.Append(buf, p.table, appendRow)
	return sorted.Append(buf, p.homes, appendHome), nil
}

// RestoreState implements routing.Persistent. Our own row is rebuilt from the
// restored weights (keeping its stamp), so the table never depends on the
// snapshot's row agreeing with them.
func (p *Policy) RestoreState(data []byte) error {
	d := prim.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != stateVersion {
		d.Fail(fmt.Errorf("state version %d, want %d", v, stateVersion))
	}
	weights := sorted.Read[vclock.ReplicaID](d, d.Float64)
	for _, w := range weights.Entries() {
		// Our row is weights normalized: a negative or non-finite count
		// would put a probability outside [0, 1] behind readTable's back.
		if !(w.Val >= 0) || math.IsInf(w.Val, 1) {
			d.Fail(fmt.Errorf("meeting weight %v for %q", w.Val, w.Key))
		}
	}
	table := readTable(d)
	homes := readHomes(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("maxprop: restore state: %w", err)
	}
	p.weights, p.table, p.homes = weights, table, homes
	own, _ := table.Get(p.self)
	p.rebuildOwn(own.Updated)
	return nil
}
