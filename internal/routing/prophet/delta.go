package prophet

import (
	"fmt"
	"math"
	"slices"

	"replidtn/internal/routing"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/wire/prim"
)

// Delta is a Request encoded against an earlier one of the same policy:
// the aging passes the sender ran in between, then every entry those passes
// do not explain. The receiver replays the passes over its copy of the base
// and applies the overrides; the sender found the overrides by running that
// same replay, so the result is the sender's vector bit for bit whatever the
// factors are — they only decide how few overrides are needed.
type Delta struct {
	// Factors are the aging passes since the base, oldest first: each entry
	// of the base is multiplied by every factor in turn and dropped where
	// age() would drop it.
	Factors []float64
	// OwnChanged says OwnAddresses replaces the base's.
	OwnChanged   bool
	OwnAddresses []string
	// Set holds the entries whose value is not the replayed base's.
	Set sorted.Map[string, float64]
	// Total is the vector's entry count, which pins what the delta leaves
	// unsaid: every other entry is one the replayed base holds.
	Total int
}

// replay runs the aging passes over one base predictability.
func replay(v float64, factors []float64) (float64, bool) {
	alive := true
	for i := 0; i < len(factors) && alive; i++ {
		v, alive = decay(v, factors[i])
	}
	return v, alive
}

// badFactor reports whether f cannot be an aging factor, γ^k for γ in (0, 1].
func badFactor(f float64) bool { return !(f > 0 && f <= 1) }

// DeltaSince implements routing.DeltaRequest. It returns nil when base is
// not this policy's, when the aging log no longer reaches back to it, when a
// factor is one DecodeDelta would refuse (γ^k underflowed to 0), or when the
// replayed base holds an entry r lacks, which a delta cannot say.
func (r *Request) DeltaSince(base routing.Request) routing.Delta {
	b, ok := base.(*Request)
	if !ok || b == nil {
		return nil
	}
	passes := r.aged - b.aged
	if passes > uint64(len(r.aging)) {
		return nil
	}
	d := &Delta{
		Factors: r.aging[len(r.aging)-int(passes):],
		Total:   r.Predictability.Len(),
	}
	if slices.ContainsFunc(d.Factors, badFactor) {
		return nil
	}
	if !slices.Equal(b.OwnAddresses, r.OwnAddresses) || (b.OwnAddresses == nil) != (r.OwnAddresses == nil) {
		d.OwnChanged, d.OwnAddresses = true, r.OwnAddresses
	}
	lost := false
	d.Set.Merge(b.Predictability, r.Predictability, func(_ string, old, cur *float64) (float64, bool) {
		v, alive := 0.0, false
		if old != nil {
			v, alive = replay(*old, d.Factors)
		}
		// An entry of the replayed base is overridden where it moved; any
		// other is new, or aged out of the base's copy and learned again.
		if lost = lost || alive && cur == nil; cur == nil {
			return 0, false
		}
		return *cur, !alive || math.Float64bits(*cur) != math.Float64bits(v)
	})
	if lost {
		return nil
	}
	return d
}

// CopyInto implements routing.DeltaRequest: the vector is copied (the
// sender ages it in place once the request is given back), the rest shared,
// as the policy only ever replaces its address list and appends to its log.
func (r *Request) CopyInto(kept routing.Request) routing.Request {
	k, _ := kept.(*Request)
	if k == nil {
		k = new(Request)
	}
	k.OwnAddresses, k.aging, k.aged = r.OwnAddresses, r.aging, r.aged
	k.Predictability.Assign(r.Predictability)
	return k
}

// Apply implements routing.Delta.
func (d *Delta) Apply(base, dst routing.Request) (routing.Request, error) {
	b, ok := base.(*Request)
	if !ok || b == nil {
		return nil, fmt.Errorf("prophet: delta against a %T", base)
	}
	req, _ := dst.(*Request)
	if req == nil {
		req = new(Request)
	}
	req.Predictability.Merge(b.Predictability, d.Set, func(_ string, old, set *float64) (float64, bool) {
		if set != nil {
			return *set, true
		}
		return replay(*old, d.Factors)
	})
	if n := req.Predictability.Len(); n != d.Total {
		return nil, fmt.Errorf("prophet: delta yields %d entries, declares %d", n, d.Total)
	}
	req.OwnAddresses, req.aging, req.aged = b.OwnAddresses, nil, 0
	if d.OwnChanged {
		req.OwnAddresses = d.OwnAddresses
	}
	return req, nil
}

// AppendBinary appends the delta: the factors, the own-address change if
// any, the overrides sorted by destination, then the entry count.
func (d *Delta) AppendBinary(buf []byte) []byte {
	buf = prim.AppendUvarint(buf, uint64(len(d.Factors)))
	for _, f := range d.Factors {
		buf = prim.AppendFloat64(buf, f)
	}
	buf = prim.AppendBool(buf, d.OwnChanged)
	if d.OwnChanged {
		buf = prim.AppendStrings(buf, d.OwnAddresses)
	}
	buf = appendVector(buf, d.Set)
	return prim.AppendUvarint(buf, uint64(d.Total))
}

// WireSize implements routing.Delta.
func (d *Delta) WireSize() int {
	n := prim.SizeUvarint(uint64(len(d.Factors))) + 8*len(d.Factors) + 1
	if d.OwnChanged {
		n += prim.SizeStrings(d.OwnAddresses)
	}
	return n + sorted.Size(d.Set, eight) + prim.SizeUvarint(uint64(d.Total))
}

// DecodeDelta decodes a delta written by AppendBinary, rejecting more
// factors than any sender logs, a factor outside (0, 1] — a replay must not
// be able to raise a predictability, or poison one with NaN — and overrides
// that are not probabilities or not in strictly ascending key order.
func DecodeDelta(data []byte) (*Delta, error) {
	d := prim.NewDecoder(data)
	delta := &Delta{}
	n := d.Uvarint()
	if d.Err() == nil && n > maxAgingLog {
		d.Fail(fmt.Errorf("%d aging factors, at most %d", n, maxAgingLog))
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		f := d.Float64()
		if d.Err() == nil && badFactor(f) {
			d.Fail(fmt.Errorf("aging factor %v outside (0, 1]", f))
		}
		delta.Factors = append(delta.Factors, f)
	}
	if delta.OwnChanged = d.Bool(); delta.OwnChanged {
		delta.OwnAddresses = d.Strings()
	}
	delta.Set = readVector(d)
	delta.Total = d.Int()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("prophet: decode delta: %w", err)
	}
	return delta, nil
}
