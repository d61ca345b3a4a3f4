package prophet

import (
	"fmt"

	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// Requests and persisted state are written in the internal/wire layout (maps
// sorted by key, as they are kept), so identical state always serializes to
// identical bytes.

func appendVector(buf []byte, vec sorted.Map[string, float64]) []byte {
	return sorted.Append(buf, vec, prim.AppendFloat64)
}

func eight(float64) int { return 8 }

// readVector decodes a predictability vector, rejecting values outside
// [0, 1]: ProcessReq folds a partner's P-values into ours by multiplication,
// so a single +Inf would pin an entry forever.
func readVector(d *prim.Decoder) sorted.Map[string, float64] {
	return sorted.Read[string](d, d.Prob)
}

// AppendBinary appends the request: OwnAddresses, then the predictability
// vector.
func (r *Request) AppendBinary(buf []byte) []byte {
	buf = prim.AppendStrings(buf, r.OwnAddresses)
	return appendVector(buf, r.Predictability)
}

// WireSize implements routing.DeltaRequest: the length of AppendBinary's
// output, without building it.
func (r *Request) WireSize() int {
	return prim.SizeStrings(r.OwnAddresses) + sorted.Size(r.Predictability, eight)
}

// DecodeRequest decodes a request written by AppendBinary.
func DecodeRequest(data []byte) (*Request, error) {
	d := prim.NewDecoder(data)
	req := &Request{
		OwnAddresses:   d.Strings(),
		Predictability: readVector(d),
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("prophet: decode request: %w", err)
	}
	return req, nil
}

// stateVersion is the first byte of the persisted state document.
const stateVersion = 1

// SnapshotState implements routing.Persistent: the aged predictability
// vector, its aging watermark, and the cached partner vectors.
func (p *Policy) SnapshotState() ([]byte, error) {
	p.age()
	buf := appendVector([]byte{stateVersion}, p.p)
	buf = prim.AppendVarint(buf, p.lastAged)
	return sorted.Append(buf, sorted.FromMap(p.partners.vectors), appendVector), nil
}

// RestoreState implements routing.Persistent.
func (p *Policy) RestoreState(data []byte) error {
	d := prim.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != stateVersion {
		d.Fail(fmt.Errorf("state version %d, want %d", v, stateVersion))
	}
	vec := readVector(d)
	lastAged := d.Varint()
	partners := sorted.Read[vclock.ReplicaID](d, func() sorted.Map[string, float64] { return readVector(d) })
	if err := d.Finish(); err != nil {
		return fmt.Errorf("prophet: restore state: %w", err)
	}
	p.p = vec
	p.lastAged = lastAged
	// A snapshot taken long ago must age forward, not backward.
	if now := p.now(); p.lastAged > now {
		p.lastAged = now
	}
	// Restored partners are evictable like any other: with no insertion
	// order to recover, sorted IDs make one every restore agrees on.
	vectors := make(map[vclock.ReplicaID]sorted.Map[string, float64], partners.Len())
	order := make([]vclock.ReplicaID, 0, partners.Len())
	for _, e := range partners.Entries() {
		vectors[e.Key] = e.Val
		order = append(order, e.Key)
	}
	p.partners = partnerCache{vectors: vectors, order: order}
	p.partners.evictOldest()
	return nil
}
