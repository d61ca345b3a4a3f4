package wire

// FuzzWireDecode throws hostile bytes at every frame-body decoder. These are
// the transport's parse-hostile surface — every byte arrives from a peer — so
// the contract under fuzzing is: never panic, never trust a forged count as
// an allocation size, and re-encode anything
// accepted to a canonical fixed point (encoding a decoded value, then
// decoding and encoding again, must reproduce the same bytes — the property
// that makes the codec's output well-defined regardless of how degenerate
// the accepted input was). `make fuzz-smoke` runs this briefly on every CI
// run; the seed corpus under testdata/fuzz (regenerated with `go test -tags
// corpusgen -run WriteFuzzCorpus`) pins one valid encoding per frame family
// plus the boundary shapes.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/routing/maxprop"
	"replidtn/internal/routing/prophet"
	"replidtn/internal/routing/sorted"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// wireFuzzSeeds builds the seed inputs, shared by the fuzz target and the
// corpus generator so the checked-in files never drift from f.Add.
func wireFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	know := vclock.NewKnowledge()
	for s := uint64(1); s <= 5; s++ {
		know.Add(vclock.Version{Replica: "a", Seq: s})
	}
	know.Add(vclock.Version{Replica: "b", Seq: 7})

	it := &item.Item{
		ID:      item.ID{Creator: "a", Num: 7},
		Version: vclock.Version{Replica: "a", Seq: 9},
		Prior:   []vclock.Version{{Replica: "a", Seq: 3}},
		Meta: item.Metadata{
			Source:       "user:1",
			Destinations: []string{"user:2"},
			Kind:         "message",
			Created:      100,
			Expires:      900,
			Attrs:        map[string]string{"a": "2"},
		},
		Payload: []byte("payload bytes"),
	}

	must := func(buf []byte, err error) []byte {
		if err != nil {
			tb.Fatalf("build seed: %v", err)
		}
		return buf
	}
	exactReq := must(AppendSyncRequest(nil, &replica.SyncRequest{
		TargetID:  "t",
		Knowledge: know,
		Epoch:     3,
		Gen:       9,
		Filter:    filter.NewAddresses("user:1"),
		MaxItems:  10,
		MaxBytes:  1 << 20,
	}))
	deltaReq := must(AppendSyncRequest(nil, &replica.SyncRequest{
		TargetID:    "t",
		Delta:       vclock.NewDelta(2, 5, know),
		StrictBytes: true,
	}))
	resp := must(AppendSyncResponse(nil, &replica.SyncResponse{
		SourceID: "s",
		Items: []replica.BatchItem{
			{Item: it, Transient: item.TransientMap{item.FieldTTL: 2}.Transient()},
		},
		Truncated:        true,
		LearnedKnowledge: know,
	}))
	muts := must(AppendMutations(nil, []replica.Mutation{
		{Kind: replica.MutPut, Entry: &store.EntrySnapshot{Item: it, Arrival: 5}, NextArrival: 6},
		{Kind: replica.MutRemove, ID: item.ID{Creator: "a", Num: 7}, NextArrival: 7},
		{Kind: replica.MutLearn, Versions: []vclock.Version{{Replica: "a", Seq: 9}}, Seq: 9},
		{Kind: replica.MutIdentity, Own: []string{"user:1"}},
	}))
	prophetReq := must(AppendSyncRequest(nil, &replica.SyncRequest{
		TargetID:  "t",
		Knowledge: know,
		Routing: &prophet.Request{
			OwnAddresses:   []string{"user:1"},
			Predictability: sorted.FromMap(map[string]float64{"user:2": 0.75, "user:3": 0.1875}),
		},
	}))
	maxpropReq := must(AppendSyncRequest(nil, &replica.SyncRequest{
		TargetID:  "t",
		Knowledge: know,
		Routing: &maxprop.Request{
			OwnAddresses: []string{"user:1"},
			Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
				"t": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"a": 0.5, "b": 0.5}), Updated: 100},
			}),
			Homes: sorted.FromMap(map[string]maxprop.Home{"user:1": {Node: "t", Updated: 100}}),
		},
	}))
	// The encoder does not validate, so it can mint the hostile shape the
	// decoder must refuse: a predictability that is not a probability.
	badProbReq := must(AppendSyncRequest(nil, &replica.SyncRequest{
		TargetID:  "t",
		Knowledge: know,
		Routing:   &prophet.Request{Predictability: sorted.FromMap(map[string]float64{"user:2": math.Inf(1)})},
	}))
	// Recurring-pair frames: a knowledge delta with the routing state as a
	// delta beside it.
	routingDeltaReq := func(d routing.Delta) []byte {
		return must(AppendSyncRequest(nil, &replica.SyncRequest{
			TargetID: "t", Delta: vclock.NewDelta(2, 6, nil), RoutingDelta: d,
		}))
	}
	return map[string][]byte{
		"exact-request":   exactReq,
		"prophet-request": prophetReq,
		"maxprop-request": maxpropReq,
		"bad-probability": badProbReq,
		"digest-request":  retagKnowledge(exactReq, "t", 2),
		"delta-request":   deltaReq,
		"prophet-delta":   routingDeltaReq(sampleProphetDelta()),
		"maxprop-delta":   routingDeltaReq(sampleMaxPropDelta()),
		"response":        resp,
		"string-flood":    must(AppendSyncResponse(nil, stringFloodResponse())),
		"done":            AppendDone(nil, 42),
		"mutations":       muts,
		"truncated":       exactReq[:len(exactReq)/2],
		"bad-version":     append([]byte{0xff}, exactReq[1:]...),
		"empty":           nil,
	}
}

// retagKnowledge returns a copy of an encoded sync request for target with
// its knowledge frame's tag byte replaced, leaving the length and body after
// it well-formed. Tag 2 is the retired Bloom-digest form: the decoder must
// refuse it like any other tag it does not know.
func retagKnowledge(req []byte, target string, tag byte) []byte {
	out := append([]byte(nil), req...)
	out[1+prim.SizeString(target)] = tag
	return out
}

func sampleProphetDelta() *prophet.Delta {
	return &prophet.Delta{
		Factors:    []float64{0.98, 0.5},
		OwnChanged: true, OwnAddresses: []string{"user:1", "user:9"},
		Set:   sorted.FromMap(map[string]float64{"user:2": 0.75, "user:4": 0.1875}),
		Total: 3,
	}
}

func sampleMaxPropDelta() *maxprop.Delta {
	return &maxprop.Delta{
		Rows: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
			"t": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"a": 0.25, "b": 0.75}), Updated: 130},
		}),
		TotalRows:  2,
		Homes:      sorted.FromMap(map[string]maxprop.Home{"user:1": {Node: "t", Updated: 130}}),
		TotalHomes: 2,
	}
}

// Bases the sample deltas apply to.
var (
	prophetFuzzBase = &prophet.Request{
		OwnAddresses:   []string{"user:1"},
		Predictability: sorted.FromMap(map[string]float64{"user:2": 0.5, "user:3": 0.25}),
	}
	maxpropFuzzBase = &maxprop.Request{
		Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
			"t": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"a": 1}), Updated: 100},
			"a": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"t": 1}), Updated: 90},
		}),
		Homes: sorted.FromMap(map[string]maxprop.Home{"user:1": {Node: "t", Updated: 100}, "user:2": {Node: "a", Updated: 90}}),
	}
	// Second bases, larger than the first, to apply into.
	prophetFuzzOther = &prophet.Request{
		OwnAddresses:   []string{"user:7", "user:8"},
		Predictability: sorted.FromMap(map[string]float64{"user:0": 0.125, "user:2": 0.75, "user:4": 1, "user:9": 0.5}),
	}
	maxpropFuzzOther = &maxprop.Request{
		OwnAddresses: []string{"user:3"},
		Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
			"a": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"b": 0.5, "t": 0.5}), Updated: 95},
			"b": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"a": 1}), Updated: 80},
			"t": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"a": 0.25, "b": 0.75}), Updated: 120},
		}),
		Homes: sorted.FromMap(map[string]maxprop.Home{"user:0": {Node: "b", Updated: 70}, "user:1": {Node: "a", Updated: 110}, "user:3": {Node: "b", Updated: 80}}),
	}
)

// routingDeltaFuzzSeeds are routing frames as they sit in a sync request:
// tag, length, body.
func routingDeltaFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	frame := func(req routing.Request, d routing.Delta) []byte {
		buf, err := appendRoutingFrame(nil, req, d)
		if err != nil {
			tb.Fatalf("build seed: %v", err)
		}
		return buf
	}
	badFactor := sampleProphetDelta()
	badFactor.Factors[0] = math.NaN()
	badValue := sampleProphetDelta()
	badValue.Set.Set("user:2", 1.5)
	forgedTotal := sampleMaxPropDelta()
	forgedTotal.TotalRows = 1 << 40
	prophetDelta := frame(nil, sampleProphetDelta())
	return map[string][]byte{
		"prophet-delta":   prophetDelta,
		"maxprop-delta":   frame(nil, sampleMaxPropDelta()),
		"prophet-request": frame(prophetFuzzBase, nil),
		"maxprop-request": frame(maxpropFuzzBase, nil),
		"bad-factor":      frame(nil, badFactor),
		"bad-value":       frame(nil, badValue),
		"forged-total":    frame(nil, forgedTotal),
		"wrong-policy":    append([]byte{routingMaxPropDelta}, prophetDelta[1:]...),
		"truncated":       prophetDelta[:len(prophetDelta)/2],
		"empty":           nil,
	}
}

// refuzz runs one decode/encode/decode/encode cycle and checks the fixed
// point: enc(dec(enc(dec(data)))) == enc(dec(data)).
func refuzz(t *testing.T, what string, data []byte,
	decode func([]byte) (any, error), encode func(any) ([]byte, error)) {
	t.Helper()
	v, err := decode(data)
	if err != nil {
		return // invalid encodings must only error, never panic
	}
	enc1, err := encode(v)
	if err != nil {
		t.Fatalf("%s: decoded value does not re-encode: %v", what, err)
	}
	v2, err := decode(enc1)
	if err != nil {
		t.Fatalf("%s: re-encoded value does not decode: %v", what, err)
	}
	enc2, err := encode(v2)
	if err != nil {
		t.Fatalf("%s: second re-encode failed: %v", what, err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("%s: encoding is not a fixed point:\n%x\n%x", what, enc1, enc2)
	}
}

func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// sized holds the size pass to every encoding the fuzzer reaches: a
		// frame is reserved from it, so it may never fall short.
		sized := func(enc []byte, err error, size int) ([]byte, error) {
			if err == nil && size != len(enc) {
				t.Fatalf("size pass says %d, encoding is %d bytes", size, len(enc))
			}
			return enc, err
		}
		refuzz(t, "sync request", data,
			func(b []byte) (any, error) { return DecodeSyncRequest(b) },
			func(v any) ([]byte, error) {
				enc, err := AppendSyncRequest(nil, v.(*replica.SyncRequest))
				return sized(enc, err, SyncRequestSize(v.(*replica.SyncRequest)))
			})
		refuzz(t, "sync response", data,
			func(b []byte) (any, error) { return DecodeSyncResponse(b) },
			func(v any) ([]byte, error) {
				resp := v.(*replica.SyncResponse)
				enc, err := AppendSyncResponse(nil, resp)
				return sized(enc, err, SyncResponseSize(resp, replica.BatchBytes(resp)))
			})
		refuzz(t, "done", data,
			func(b []byte) (any, error) { return DecodeDone(b) },
			func(v any) ([]byte, error) { return AppendDone(nil, v.(int)), nil })
		refuzz(t, "mutations", data,
			func(b []byte) (any, error) { return DecodeMutations(b) },
			func(v any) ([]byte, error) {
				return AppendMutations(nil, v.([]replica.Mutation))
			})
	})
}

// FuzzRoutingDeltaDecode throws hostile bytes at the routing frame of a sync
// request, where a recurring peer's routing delta arrives. A delta that
// decodes must re-encode to a fixed point, size itself exactly, and be safe
// to apply: against a base of its policy, Apply either refuses — leaving the
// base as it was — or yields a request the full-frame decoder accepts, so
// nothing a delta can carry reaches ProcessReq that a full frame could not.
// Applied into a dirty destination — a copy of the other base of the same
// policy, as a replica's spare baseline holds its last request — it must
// refuse alike or yield the same bytes as into a fresh one.
func FuzzRoutingDeltaDecode(f *testing.F) {
	for _, seed := range routingDeltaFuzzSeeds(f) {
		f.Add(seed)
	}
	decode := func(b []byte) (any, error) {
		d := NewDecoder(b)
		_, delta := d.routingFrame()
		if err := d.Finish(); err != nil {
			return nil, err
		}
		if delta == nil {
			return nil, errors.New("not a delta frame")
		}
		return delta, nil
	}
	encode := func(v any) ([]byte, error) { return appendRoutingFrame(nil, nil, v.(routing.Delta)) }
	f.Fuzz(func(t *testing.T, data []byte) {
		refuzz(t, "routing delta", data, decode, encode)
		v, err := decode(data)
		if err != nil {
			return
		}
		delta := v.(routing.Delta)
		if enc, _ := encode(delta); delta.WireSize() != len(enc)-5 {
			t.Fatalf("delta WireSize %d, body encodes to %d bytes", delta.WireSize(), len(enc)-5)
		}
		for _, bases := range [][2]routing.DeltaRequest{
			{prophetFuzzBase, prophetFuzzOther}, {prophetFuzzOther, prophetFuzzBase},
			{maxpropFuzzBase, maxpropFuzzOther}, {maxpropFuzzOther, maxpropFuzzBase},
		} {
			base := bases[0]
			before, _ := AppendRouting(nil, base)
			got, err := delta.Apply(base, nil)
			if after, _ := AppendRouting(nil, base); !bytes.Equal(before, after) {
				t.Fatal("Apply wrote its base")
			}
			dirty, dirtyErr := delta.Apply(base, bases[1].CopyInto(nil))
			if (err == nil) != (dirtyErr == nil) {
				t.Fatalf("Apply into a fresh destination: %v; into a dirty one: %v", err, dirtyErr)
			}
			if err != nil {
				continue
			}
			enc, err := AppendRouting(nil, got)
			if err != nil {
				t.Fatalf("reconstructed request does not encode: %v", err)
			}
			if dirtyEnc, _ := AppendRouting(nil, dirty); !bytes.Equal(dirtyEnc, enc) {
				t.Fatal("Apply into a dirty destination differs from one into a fresh one")
			}
			d := NewDecoder(enc)
			if d.routingFrame(); d.Finish() != nil {
				t.Fatalf("reconstructed request is one the full-frame decoder refuses: %v", d.Err())
			}
		}
	})
}
