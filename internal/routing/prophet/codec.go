package prophet

import (
	"fmt"
	"slices"

	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// Requests and persisted state are written in the internal/wire layout (maps
// sorted by key), so identical state always serializes to identical bytes.

func appendVector(buf []byte, vec map[string]float64) []byte {
	return prim.AppendMap(buf, vec, prim.AppendFloat64)
}

// readVector decodes a predictability vector, rejecting values outside
// [0, 1]: ProcessReq folds a partner's P-values into ours by multiplication,
// so a single +Inf would pin an entry forever.
func readVector(d *prim.Decoder) map[string]float64 {
	return prim.ReadMap[string](d, d.Prob)
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
	n := prim.SizeStrings(r.OwnAddresses) + prim.SizeUvarint(uint64(len(r.Predictability)))
	for dest := range r.Predictability {
		n += prim.SizeString(dest) + 8
	}
	return n
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
	return prim.AppendMap(buf, p.partners.vectors, appendVector), nil
}

// RestoreState implements routing.Persistent.
func (p *Policy) RestoreState(data []byte) error {
	d := prim.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != stateVersion {
		d.Fail(fmt.Errorf("state version %d, want %d", v, stateVersion))
	}
	vec := readVector(d)
	lastAged := d.Varint()
	partners := prim.ReadMap[vclock.ReplicaID](d, func() map[string]float64 { return readVector(d) })
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
	order := make([]vclock.ReplicaID, 0, len(partners))
	for id := range partners {
		order = append(order, id)
	}
	slices.Sort(order)
	p.partners = partnerCache{vectors: partners, order: order}
	p.partners.evictOldest()
	return nil
}
