package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"replidtn/internal/filter"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

// Codecs for the transport's frame bodies. Each body starts with
// the one-byte codec version; the frame length prefix and message-type byte
// around it belong to the transport (see internal/transport).

// Filter type tags. The filter set is closed (package filter defines exactly
// these implementations), so each concrete type has an explicit tag.
const (
	filterNil       = 0
	filterAll       = 1
	filterNone      = 2
	filterAddresses = 3
	filterOr        = 4
	filterKind      = 5
)

// maxFilterDepth bounds Or nesting on both sides: deeper filters are the
// work of a hostile frame (or a runaway caller) and would otherwise let
// recursion depth scale with input bytes.
const maxFilterDepth = 32

// AppendFilter appends a filter as a type tag plus type-specific fields.
// A nil filter encodes as a tag of its own so it survives the round trip.
func AppendFilter(buf []byte, f filter.Filter) ([]byte, error) {
	return appendFilter(buf, f, 0)
}

func appendFilter(buf []byte, f filter.Filter, depth int) ([]byte, error) {
	if depth > maxFilterDepth {
		return nil, fmt.Errorf("wire: filter nesting exceeds %d", maxFilterDepth)
	}
	switch f := f.(type) {
	case nil:
		return append(buf, filterNil), nil
	case filter.All:
		return append(buf, filterAll), nil
	case filter.None:
		return append(buf, filterNone), nil
	case *filter.Addresses:
		buf = append(buf, filterAddresses)
		return prim.AppendStrings(buf, f.List()), nil
	case *filter.Or:
		buf = append(buf, filterOr)
		buf = prim.AppendUvarint(buf, uint64(len(f.Members)))
		var err error
		for _, m := range f.Members {
			if buf, err = appendFilter(buf, m, depth+1); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case filter.Kind:
		buf = append(buf, filterKind)
		return prim.AppendString(buf, f.Name), nil
	default:
		return nil, fmt.Errorf("wire: unencodable filter type %T", f)
	}
}

// sizeFilter returns the length of appendFilter's output (anything, for a
// filter appendFilter refuses).
func sizeFilter(f filter.Filter, depth int) int {
	switch f := f.(type) {
	case *filter.Addresses:
		return 1 + prim.SizeStrings(f.List())
	case *filter.Or:
		n := 1 + prim.SizeUvarint(uint64(len(f.Members)))
		for _, m := range f.Members {
			if depth < maxFilterDepth {
				n += sizeFilter(m, depth+1)
			}
		}
		return n
	case filter.Kind:
		return 1 + prim.SizeString(f.Name)
	default:
		return 1
	}
}

// Filter decodes a filter written by AppendFilter.
func (d *Decoder) Filter() filter.Filter {
	return d.filter(0)
}

func (d *Decoder) filter(depth int) filter.Filter {
	if depth > maxFilterDepth {
		d.Fail(fmt.Errorf("wire: filter nesting exceeds %d", maxFilterDepth))
		return nil
	}
	switch tag := d.Byte(); tag {
	case filterNil:
		return nil
	case filterAll:
		return filter.All{}
	case filterNone:
		return filter.None{}
	case filterAddresses:
		return filter.NewAddresses(d.Strings()...)
	case filterOr:
		n := d.Uvarint()
		// Each member costs at least its one tag byte.
		if n > uint64(d.Remaining()) {
			d.Fail(fmt.Errorf("wire: filter member count %d exceeds %d remaining bytes", n, d.Remaining()))
			return nil
		}
		members := make([]filter.Filter, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			members = append(members, d.filter(depth+1))
		}
		return filter.NewOr(members...)
	case filterKind:
		return filter.Kind{Name: d.String()}
	default:
		if d.Err() == nil {
			d.Fail(fmt.Errorf("wire: unknown filter tag %d", tag))
		}
		return nil
	}
}

// Routing-frame type tags. Like the filter set, the set of policies with
// wire-visible routing state is closed (PROPHET and MaxProp; the other
// policies keep their state in per-item transients), so each gets a tag for
// its request and one for its delta against the request the receiver holds
// from the sender's previous frame (DESIGN.md §12). The body is the policy's
// own binary marshal behind a fixed uint32 length, back-patched so the
// marshal appends straight into buf.
const (
	routingNil          = 0
	routingProphet      = 1
	routingMaxProp      = 2
	routingProphetDelta = 3
	routingMaxPropDelta = 4
)

// AppendRouting appends a routing request as a type tag plus the policy's
// length-prefixed encoding. A nil request encodes as a tag of its own.
func AppendRouting(buf []byte, req routing.Request) ([]byte, error) {
	switch req := req.(type) {
	case nil:
		return append(buf, routingNil), nil
	case *prophet.Request:
		return appendRoutingBody(buf, routingProphet, req), nil
	case *maxprop.Request:
		return appendRoutingBody(buf, routingMaxProp, req), nil
	default:
		return nil, fmt.Errorf("wire: unencodable routing request type %T", req)
	}
}

// appendRoutingFrame appends the routing part of a sync request: the delta
// when the request carries one, the full state otherwise.
func appendRoutingFrame(buf []byte, req routing.Request, delta routing.Delta) ([]byte, error) {
	switch delta := delta.(type) {
	case nil:
		return AppendRouting(buf, req)
	case *prophet.Delta:
		return appendRoutingBody(buf, routingProphetDelta, delta), nil
	case *maxprop.Delta:
		return appendRoutingBody(buf, routingMaxPropDelta, delta), nil
	default:
		return nil, fmt.Errorf("wire: unencodable routing delta type %T", delta)
	}
}

func appendRoutingBody(buf []byte, tag byte, req interface{ AppendBinary([]byte) []byte }) []byte {
	buf = append(buf, tag, 0, 0, 0, 0)
	start := len(buf)
	buf = req.AppendBinary(buf)
	binary.LittleEndian.PutUint32(buf[start-4:], uint32(len(buf)-start))
	return buf
}

// sizeRoutingFrame returns the length of appendRoutingFrame's output. Every
// type it encodes knows its own encoded size.
func sizeRoutingFrame(req routing.Request, delta routing.Delta) int {
	if delta != nil {
		return 5 + delta.WireSize()
	}
	if sized, ok := req.(interface{ WireSize() int }); ok {
		return 5 + sized.WireSize()
	}
	return 1
}

// routingFrame decodes a frame written by appendRoutingFrame into whichever
// of the two forms the tag names. The policies' decoders validate what they
// read (probabilities and aging factors in range, counts bounded by the
// input), so a request that decodes is safe to hand to ProcessReq and a
// delta that decodes is safe to apply.
func (d *Decoder) routingFrame() (routing.Request, routing.Delta) {
	tag := d.Byte()
	if tag == routingNil || d.Err() != nil {
		return nil, nil
	}
	body := d.View(uint64(d.Uint32()))
	if d.Err() != nil {
		return nil, nil
	}
	var req routing.Request
	var delta routing.Delta
	var err error
	switch tag {
	case routingProphet:
		req, err = prophet.DecodeRequest(body)
	case routingMaxProp:
		req, err = maxprop.DecodeRequest(body)
	case routingProphetDelta:
		delta, err = prophet.DecodeDelta(body)
	case routingMaxPropDelta:
		delta, err = maxprop.DecodeDelta(body)
	default:
		err = fmt.Errorf("wire: unknown routing tag %d", tag)
	}
	if err != nil {
		d.Fail(err)
		return nil, nil
	}
	return req, delta
}

// Knowledge-frame tags: the request's summary-mode alternatives and the
// response's optional learned knowledge reuse one layout — a tag byte, then
// a length-prefixed vclock binary marshal. Tag 2 is retired (it carried a
// Bloom digest) and decodes as unknown.
const (
	knowNone  = 0
	knowExact = 1
	knowDelta = 3
)

// knowledgeBody is what the two summary forms share: an encoding that
// appends straight into the frame and knows its exact length beforehand.
type knowledgeBody interface {
	WireSize() int
	AppendBinary([]byte) ([]byte, error)
}

// pickKnowledge returns the tag and body of whichever summary form is set
// (knowNone and nil when none is), and how many are.
func pickKnowledge(k *vclock.Knowledge, dl *vclock.Delta) (tag byte, body knowledgeBody, set int) {
	if dl != nil {
		tag, body, set = knowDelta, dl, set+1
	}
	if k != nil {
		tag, body, set = knowExact, k, set+1
	}
	return tag, body, set
}

// appendKnowledgeFrame appends exactly one of the two summary forms (or the
// none tag). The vclock marshals append straight into buf — WireSize
// gives the exact length prefix without building the encoding twice.
func appendKnowledgeFrame(buf []byte, k *vclock.Knowledge, dl *vclock.Delta) ([]byte, error) {
	tag, body, set := pickKnowledge(k, dl)
	if set > 1 {
		return nil, errors.New("wire: multiple knowledge frames set")
	}
	buf = append(buf, tag)
	if body == nil {
		return buf, nil
	}
	buf, err := body.AppendBinary(prim.AppendUvarint(buf, uint64(body.WireSize())))
	if err != nil {
		return nil, fmt.Errorf("wire: encode knowledge frame: %w", err)
	}
	return buf, nil
}

// sizeKnowledgeFrame returns the length of appendKnowledgeFrame's output.
func sizeKnowledgeFrame(k *vclock.Knowledge, dl *vclock.Delta) int {
	_, body, _ := pickKnowledge(k, dl)
	if body == nil {
		return 1
	}
	n := body.WireSize()
	return 1 + prim.SizeUvarint(uint64(n)) + n
}

// knowledgeFrame decodes one frame into whichever of the two forms the tag
// names. The vclock unmarshals copy and canonicalize, so the returned values
// never alias the input.
func (d *Decoder) knowledgeFrame() (*vclock.Knowledge, *vclock.Delta) {
	tag := d.Byte()
	if tag == knowNone || d.Err() != nil {
		return nil, nil
	}
	n := d.Uvarint()
	body := d.View(n)
	if d.Err() != nil {
		return nil, nil
	}
	switch tag {
	case knowExact:
		k := vclock.NewKnowledge()
		if err := k.UnmarshalBinary(body); err != nil {
			d.Fail(err)
			return nil, nil
		}
		return k, nil
	case knowDelta:
		dl := new(vclock.Delta)
		if err := dl.UnmarshalBinary(body); err != nil {
			d.Fail(err)
			return nil, nil
		}
		return nil, dl
	default:
		d.Fail(fmt.Errorf("wire: unknown knowledge tag %d", tag))
		return nil, nil
	}
}

// AppendSyncRequest appends a complete sync-request body: codec version,
// target ID, knowledge frame, delta tags, filter, routing frame (the delta
// when the request has one — Routing stays behind for the fallback round),
// budgets.
// Budgets travel as zigzag varints so an (invalid) negative survives to the
// transport validator instead of wrapping into a huge positive.
func AppendSyncRequest(buf []byte, req *replica.SyncRequest) ([]byte, error) {
	buf = append(buf, CodecVersion)
	buf = prim.AppendString(buf, string(req.TargetID))
	buf, err := appendKnowledgeFrame(buf, req.Knowledge, req.Delta)
	if err != nil {
		return nil, err
	}
	buf = prim.AppendUvarint(buf, req.Epoch)
	buf = prim.AppendUvarint(buf, req.Gen)
	if buf, err = AppendFilter(buf, req.Filter); err != nil {
		return nil, err
	}
	if buf, err = appendRoutingFrame(buf, req.Routing, req.RoutingDelta); err != nil {
		return nil, err
	}
	buf = prim.AppendVarint(buf, int64(req.MaxItems))
	buf = prim.AppendVarint(buf, req.MaxBytes)
	return prim.AppendBool(buf, req.StrictBytes), nil
}

// SyncRequestSize returns the length of the body AppendSyncRequest writes for
// req, without encoding it.
func SyncRequestSize(req *replica.SyncRequest) int {
	return 1 + prim.SizeString(string(req.TargetID)) +
		sizeKnowledgeFrame(req.Knowledge, req.Delta) +
		prim.SizeUvarint(req.Epoch) + prim.SizeUvarint(req.Gen) +
		sizeFilter(req.Filter, 0) +
		sizeRoutingFrame(req.Routing, req.RoutingDelta) +
		prim.SizeVarint(int64(req.MaxItems)) + prim.SizeVarint(req.MaxBytes) + 1
}

// DecodeSyncRequest decodes a body written by AppendSyncRequest. Structural
// protocol rules (exactly one knowledge frame, non-negative budgets) stay
// with the transport validator; this only enforces the layout.
func DecodeSyncRequest(data []byte) (*replica.SyncRequest, error) {
	d := NewDecoder(data)
	if ver := d.Byte(); d.Err() == nil && ver != CodecVersion {
		return nil, fmt.Errorf("wire: sync request codec version %d, want %d", ver, CodecVersion)
	}
	req := &replica.SyncRequest{TargetID: vclock.ReplicaID(d.String())}
	req.Knowledge, req.Delta = d.knowledgeFrame()
	req.Epoch = d.Uvarint()
	req.Gen = d.Uvarint()
	req.Filter = d.Filter()
	req.Routing, req.RoutingDelta = d.routingFrame()
	req.MaxItems = int(d.Varint())
	req.MaxBytes = d.Varint()
	req.StrictBytes = d.Bool()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// AppendSyncResponse appends a complete sync-response body: codec
// version, source ID, the prioritized batch, flags, and the optional learned
// knowledge.
func AppendSyncResponse(buf []byte, resp *replica.SyncResponse) ([]byte, error) {
	buf = append(buf, CodecVersion)
	buf = prim.AppendString(buf, string(resp.SourceID))
	buf = prim.AppendUvarint(buf, uint64(len(resp.Items)))
	for i := range resp.Items {
		bi := &resp.Items[i]
		if bi.Item == nil {
			return nil, fmt.Errorf("wire: batch item %d missing item", i)
		}
		//lint:allow transientleak -- BatchItem.Transient is the policy-mediated transmit copy (e.g. a halved spray allowance): an explicit field of the wire protocol, not a leak of host-local state
		buf = itemcodec.AppendBatchItem(buf, bi.Item, bi.Transient, int64(bi.Priority.Class), bi.Priority.Cost)
	}
	buf = prim.AppendBool(buf, resp.Truncated)
	buf = prim.AppendBool(buf, resp.NeedKnowledge)
	return appendKnowledgeFrame(buf, resp.LearnedKnowledge, nil)
}

// SyncResponseSize returns the length of the body AppendSyncResponse writes
// for resp, without encoding it: the payloads are not touched, the learned
// knowledge's size is memoized. items must be replica.BatchBytes(resp), the
// item section less its count, which the caller takes once and may report
// too (the transport's served leg does).
func SyncResponseSize(resp *replica.SyncResponse, items int64) int {
	n := 1 + prim.SizeString(string(resp.SourceID)) + prim.SizeUvarint(uint64(len(resp.Items))) + int(items)
	return n + 2 + sizeKnowledgeFrame(resp.LearnedKnowledge, nil)
}

// shareStringsFrom is the batch size from which the response decoder shares
// repeated strings: the cache is a 2 KiB allocation, an item names about five
// short strings of 16–32 bytes, so below some sixteen items it costs more
// than it can save (a recurring pair's one-item batches would pay for it on
// every encounter).
const shareStringsFrom = 16

// DecodeSyncResponse decodes a body written by AppendSyncResponse. Every
// item is copied out of data, so the caller may reuse its read buffer; the
// short strings a large batch repeats in every item (replica IDs, addresses,
// kinds) are materialized once and shared.
func DecodeSyncResponse(data []byte) (*replica.SyncResponse, error) {
	d := NewDecoder(data)
	if ver := d.Byte(); d.Err() == nil && ver != CodecVersion {
		return nil, fmt.Errorf("wire: sync response codec version %d, want %d", ver, CodecVersion)
	}
	resp := &replica.SyncResponse{SourceID: vclock.ReplicaID(d.String())}
	n := d.Uvarint()
	if n >= shareStringsFrom {
		d.ShareStrings()
	}
	// Each batch item costs well over one byte; one is enough to unmask a
	// forged count before it sizes the allocation.
	if n > uint64(d.Remaining()) {
		return nil, fmt.Errorf("wire: batch item count %d exceeds %d remaining bytes", n, d.Remaining())
	}
	if n > 0 {
		resp.Items = make([]replica.BatchItem, 0, n)
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		it, tr, class, cost := d.BatchItem()
		resp.Items = append(resp.Items, replica.BatchItem{Item: it, Transient: tr, Priority: routing.Priority{Class: routing.Class(class), Cost: cost}})
	}
	resp.Truncated = d.Bool()
	resp.NeedKnowledge = d.Bool()
	var dl *vclock.Delta
	resp.LearnedKnowledge, dl = d.knowledgeFrame()
	if d.Err() == nil && dl != nil {
		return nil, errors.New("wire: sync response carries a summary knowledge frame")
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// AppendDone appends the encounter-closing acknowledgement body.
func AppendDone(buf []byte, applied int) []byte {
	buf = append(buf, CodecVersion)
	return prim.AppendVarint(buf, int64(applied))
}

// DecodeDone decodes a body written by AppendDone.
func DecodeDone(data []byte) (int, error) {
	d := NewDecoder(data)
	if ver := d.Byte(); d.Err() == nil && ver != CodecVersion {
		return 0, fmt.Errorf("wire: done codec version %d, want %d", ver, CodecVersion)
	}
	applied := int(d.Varint())
	if err := d.Finish(); err != nil {
		return 0, err
	}
	return applied, nil
}
