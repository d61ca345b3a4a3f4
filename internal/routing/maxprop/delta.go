package maxprop

import (
	"fmt"
	"slices"

	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// Delta is a Request encoded against an earlier one of the same policy: the
// rows and homes that were replaced or added since. Tables and homes only
// grow between two requests of one policy, so there is no way to say
// "removed" — DeltaSince declines when something was.
type Delta struct {
	// OwnChanged says OwnAddresses replaces the base's.
	OwnChanged   bool
	OwnAddresses []string
	// Rows and Homes hold the entries that differ from the base's; the
	// totals are the table's and the home map's entry counts, which pin
	// what the delta leaves unsaid: every other entry is one the base holds.
	Rows       sorted.Map[vclock.ReplicaID, Row]
	TotalRows  int
	Homes      sorted.Map[string, Home]
	TotalHomes int
}

// sameRow reports whether two rows are one row: rows are never written once
// built, so the same entries under the same stamp are the same content, and
// comparing identities keeps a 64-row diff from reading 64 × 64 cells.
func sameRow(a, b Row) bool {
	x, y := a.Probabilities.Entries(), b.Probabilities.Entries()
	return a.Updated == b.Updated && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// changed sets out to the entries of cur that base lacks or holds
// differently, and reports whether cur holds every key of base.
func changed[K ~string, V any](out *sorted.Map[K, V], base, cur sorted.Map[K, V], same func(a, b V) bool) bool {
	kept := true
	out.Merge(base, cur, func(_ K, old, v *V) (V, bool) {
		if v == nil {
			kept = false
			return *old, false
		}
		return *v, old == nil || !same(*old, *v)
	})
	return kept
}

// DeltaSince implements routing.DeltaRequest. It returns nil when base is
// not this policy's or holds a row or home r lacks.
func (r *Request) DeltaSince(base routing.Request) routing.Delta {
	b, ok := base.(*Request)
	if !ok || b == nil {
		return nil
	}
	d := &Delta{TotalRows: r.Table.Len(), TotalHomes: r.Homes.Len()}
	if !changed(&d.Rows, b.Table, r.Table, sameRow) || !changed(&d.Homes, b.Homes, r.Homes, func(a, b Home) bool { return a == b }) {
		return nil
	}
	if !slices.Equal(b.OwnAddresses, r.OwnAddresses) || (b.OwnAddresses == nil) != (r.OwnAddresses == nil) {
		d.OwnChanged, d.OwnAddresses = true, r.OwnAddresses
	}
	return d
}

// CopyInto implements routing.DeltaRequest: the table and homes are
// copied, rows and the address list shared, as nobody writes them.
func (r *Request) CopyInto(kept routing.Request) routing.Request {
	k, _ := kept.(*Request)
	if k == nil {
		k = new(Request)
	}
	k.OwnAddresses = r.OwnAddresses
	k.Table.Assign(r.Table)
	k.Homes.Assign(r.Homes)
	return k
}

// overlay sets out to base with set laid over it, or returns an error when
// the result does not have total entries.
func overlay[K ~string, V any](out *sorted.Map[K, V], what string, base, set sorted.Map[K, V], total int) error {
	out.Merge(base, set, func(_ K, old, v *V) (V, bool) {
		if v != nil {
			return *v, true
		}
		return *old, true
	})
	if out.Len() != total {
		return fmt.Errorf("maxprop: delta yields %d %s, declares %d", out.Len(), what, total)
	}
	return nil
}

// Apply implements routing.Delta.
func (d *Delta) Apply(base, dst routing.Request) (routing.Request, error) {
	b, ok := base.(*Request)
	if !ok || b == nil {
		return nil, fmt.Errorf("maxprop: delta against a %T", base)
	}
	req, _ := dst.(*Request)
	if req == nil {
		req = new(Request)
	}
	req.OwnAddresses = b.OwnAddresses
	if d.OwnChanged {
		req.OwnAddresses = d.OwnAddresses
	}
	if err := overlay(&req.Table, "rows", b.Table, d.Rows, d.TotalRows); err != nil {
		return nil, err
	}
	if err := overlay(&req.Homes, "homes", b.Homes, d.Homes, d.TotalHomes); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendBinary appends the delta: the own-address change if any, then the
// changed rows and homes, each sorted by key and followed by its total.
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = prim.AppendBool(buf, d.OwnChanged)
	if d.OwnChanged {
		buf = prim.AppendStrings(buf, d.OwnAddresses)
	}
	buf = sorted.Append(buf, d.Rows, appendRow)
	buf = prim.AppendUvarint(buf, uint64(d.TotalRows))
	buf = sorted.Append(buf, d.Homes, appendHome)
	return prim.AppendUvarint(buf, uint64(d.TotalHomes))
}

// DecodeDelta decodes a delta written by AppendBinary, holding rows and
// homes to the full request's rules: probabilities in [0, 1], keys strictly
// ascending.
func DecodeDelta(data []byte) (*Delta, error) {
	d := prim.NewDecoder(data)
	delta := &Delta{}
	if delta.OwnChanged = d.Bool(); delta.OwnChanged {
		delta.OwnAddresses = d.Strings()
	}
	delta.Rows = readTable(d)
	delta.TotalRows = d.Int()
	delta.Homes = readHomes(d)
	delta.TotalHomes = d.Int()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("maxprop: decode delta: %w", err)
	}
	return delta, nil
}

func sizeProbs(probs sorted.Map[vclock.ReplicaID, float64]) int {
	return sorted.Size(probs, func(float64) int { return 8 })
}

// sizeTable sizes each row from its memo when it has one: the stamp is sized
// fresh, as GenerateReq re-stamps our row without rebuilding it. It and
// sizeHomes loop over the entries themselves, as every sync target runs
// them: through sorted.Size's callback homes cost twice as much.
func sizeTable(table sorted.Map[vclock.ReplicaID, Row]) int {
	n := prim.SizeUvarint(uint64(table.Len()))
	for _, e := range table.Entries() {
		size := e.Val.size
		if size == 0 {
			size = sizeProbs(e.Val.Probabilities)
		}
		n += prim.SizeString(string(e.Key)) + size + prim.SizeVarint(e.Val.Updated)
	}
	return n
}

func sizeHomes(homes sorted.Map[string, Home]) int {
	n := prim.SizeUvarint(uint64(homes.Len()))
	for _, e := range homes.Entries() {
		n += prim.SizeString(e.Key) + prim.SizeString(string(e.Val.Node)) + prim.SizeVarint(e.Val.Updated)
	}
	return n
}

// WireSize implements routing.DeltaRequest: the length of AppendBinary's
// output, without building it.
func (r *Request) WireSize() int {
	return prim.SizeStrings(r.OwnAddresses) + sizeTable(r.Table) + sizeHomes(r.Homes)
}

// WireSize implements routing.Delta.
func (d *Delta) WireSize() int {
	n := 1 + sizeTable(d.Rows) + prim.SizeUvarint(uint64(d.TotalRows)) + sizeHomes(d.Homes) + prim.SizeUvarint(uint64(d.TotalHomes))
	if d.OwnChanged {
		n += prim.SizeStrings(d.OwnAddresses)
	}
	return n
}
