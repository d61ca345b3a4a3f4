package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
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
	"replidtn/internal/wire/itemcodec"
	"replidtn/internal/wire/prim"
)

func testItem() *item.Item {
	return &item.Item{
		ID:      item.ID{Creator: "a", Num: 7},
		Version: vclock.Version{Replica: "a", Seq: 9},
		Prior:   []vclock.Version{{Replica: "a", Seq: 3}, {Replica: "b", Seq: 1}},
		Deleted: false,
		Meta: item.Metadata{
			Source:       "user:1",
			Destinations: []string{"user:2", "user:3"},
			Kind:         "message",
			Created:      100,
			Expires:      900,
			Attrs:        map[string]string{"z": "1", "a": "2"},
		},
		Payload: []byte("payload bytes"),
	}
}

func TestItemRoundTrip(t *testing.T) {
	for name, it := range map[string]*item.Item{
		"full": testItem(),
		"minimal": {
			ID:      item.ID{Creator: "x", Num: 1},
			Version: vclock.Version{Replica: "x", Seq: 1},
		},
		"tombstone": {
			ID:      item.ID{Creator: "x", Num: 1},
			Version: vclock.Version{Replica: "y", Seq: 4},
			Deleted: true,
			Payload: []byte{},
		},
	} {
		t.Run(name, func(t *testing.T) {
			buf := itemcodec.AppendItem(nil, it)
			d := NewDecoder(buf)
			got := d.Item()
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if !reflect.DeepEqual(got, it) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, it)
			}
		})
	}
}

func TestItemDecodeCopies(t *testing.T) {
	it := testItem()
	buf := itemcodec.AppendItem(nil, it)
	d := NewDecoder(buf)
	got := d.Item()
	for i := range buf {
		buf[i] = 0xff
	}
	if !reflect.DeepEqual(got, it) {
		t.Error("decoded item aliases the input buffer")
	}
}

func TestTransientRoundTrip(t *testing.T) {
	full := item.TransientMap{item.FieldTTL: 5, item.FieldCopies: 3, item.FieldHops: 1}.Transient()
	for name, c := range map[string]struct {
		in   []byte // encoded input; nil encodes want
		want item.Transient
	}{
		"nil": {},
		// The map form wrote an empty, non-nil map as count 0; it decodes to
		// the zero value, which re-encodes as the nil byte.
		"empty": {in: []byte{1}},
		"full":  {want: full},
	} {
		t.Run(name, func(t *testing.T) {
			buf := c.in
			if buf == nil {
				buf = itemcodec.AppendTransient(nil, c.want)
			}
			d := NewDecoder(buf)
			got := d.Transient()
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if got != c.want {
				t.Errorf("round trip: got %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestEntrySnapshotRoundTrip(t *testing.T) {
	e := &store.EntrySnapshot{
		Item:      testItem(),
		Transient: item.TransientMap{item.FieldCopies: 4},
		Relay:     true,
		Local:     false,
		Arrival:   42,
	}
	buf := AppendEntrySnapshot(nil, e)
	d := NewDecoder(buf)
	got := d.EntrySnapshot()
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, e)
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	// Map iteration order must not leak into the bytes.
	it := testItem()
	firstItem := itemcodec.AppendItem(nil, it)
	for i := 0; i < 32; i++ {
		if got := itemcodec.AppendItem(nil, it); !bytes.Equal(got, firstItem) {
			t.Fatal("item encoding depends on map order")
		}
	}
}

func TestFilterRoundTrip(t *testing.T) {
	filters := map[string]filter.Filter{
		"nil":       nil,
		"all":       filter.All{},
		"none":      filter.None{},
		"addresses": filter.NewAddresses("user:1", "user:2"),
		"kind":      filter.Kind{Name: "message"},
		"or": filter.NewOr(
			filter.NewAddresses("user:1"),
			filter.Kind{Name: "control"},
			filter.NewOr(filter.None{}),
		),
	}
	for name, f := range filters {
		t.Run(name, func(t *testing.T) {
			buf, err := AppendFilter(nil, f)
			if err != nil {
				t.Fatalf("AppendFilter: %v", err)
			}
			d := NewDecoder(buf)
			got := d.Filter()
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if f == nil {
				if got != nil {
					t.Fatalf("nil filter decoded as %v", got)
				}
				return
			}
			if got.String() != f.String() {
				t.Errorf("round trip: got %v, want %v", got, f)
			}
		})
	}
}

func TestFilterDepthLimit(t *testing.T) {
	var f filter.Filter = filter.All{}
	for i := 0; i < maxFilterDepth+2; i++ {
		f = filter.NewOr(f)
	}
	if _, err := AppendFilter(nil, f); err == nil {
		t.Error("over-deep filter encoded")
	}
	// Hostile deep frame: nested Or tags.
	var buf []byte
	for i := 0; i < maxFilterDepth+2; i++ {
		buf = append(buf, filterOr)
		buf = prim.AppendUvarint(buf, 1)
	}
	buf = append(buf, filterAll)
	d := NewDecoder(buf)
	d.Filter()
	if d.Err() == nil {
		t.Error("over-deep frame decoded")
	}
}

func TestFilterUnknownTag(t *testing.T) {
	d := NewDecoder([]byte{99})
	if got := d.Filter(); got != nil || d.Err() == nil {
		t.Errorf("unknown tag decoded: %v, err %v", got, d.Err())
	}
}

func TestRoutingRoundTrip(t *testing.T) {
	cases := map[string]routing.Request{
		"nil": nil,
		"prophet": &prophet.Request{
			OwnAddresses:   []string{"user:1"},
			Predictability: sorted.FromMap(map[string]float64{"user:2": 0.5, "user:3": 1, "user:4": 0}),
		},
		"prophet empty": &prophet.Request{Predictability: sorted.FromMap(map[string]float64{})},
		"maxprop": &maxprop.Request{
			OwnAddresses: []string{"user:1"},
			Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
				"a": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"b": 0.75, "c": 0.25}), Updated: 40},
				"b": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{}), Updated: -1},
			}),
			Homes: sorted.FromMap(map[string]maxprop.Home{"user:1": {Node: "a", Updated: 40}, "user:2": {Node: "b", Updated: 7}}),
		},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			buf, err := AppendRouting(nil, req)
			if err != nil {
				t.Fatalf("AppendRouting: %v", err)
			}
			d := NewDecoder(buf)
			got, _ := d.routingFrame()
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("round trip: got %#v, want %#v", got, req)
			}
			// Sorted keys: the same value always encodes to the same bytes.
			for i := 0; i < 20; i++ {
				again, err := AppendRouting(nil, req)
				if err != nil || !bytes.Equal(again, buf) {
					t.Fatalf("encoding %d differs (err %v)", i, err)
				}
			}
		})
	}
}

// TestRoutingRejected: the routing tag set is closed, and the decoders trust
// nothing — a type outside the set fails to encode; unknown tags, values that
// are not probabilities, unsorted keys, forged counts and cut-off bodies fail
// to decode.
func TestRoutingRejected(t *testing.T) {
	if _, err := AppendRouting(nil, struct{ P float64 }{0.5}); err == nil {
		t.Error("a request type outside the tag set encoded")
	}
	framed := func(tag byte, body []byte) []byte {
		return append(prim.AppendUint32([]byte{tag}, uint32(len(body))), body...)
	}
	vector := func(p float64) []byte {
		return (&prophet.Request{Predictability: sorted.FromMap(map[string]float64{"d": p})}).AppendBinary(nil)
	}
	row := (&maxprop.Request{Table: sorted.FromMap(map[vclock.ReplicaID]maxprop.Row{
		"a": {Probabilities: sorted.FromMap(map[vclock.ReplicaID]float64{"b": 2})},
	})}).AppendBinary(nil)
	two := (&prophet.Request{Predictability: sorted.FromMap(map[string]float64{"a": 0.5, "b": 0.5})}).AppendBinary(nil)
	unsorted := bytes.Replace(bytes.Replace(two, []byte("\x01a"), []byte("\x01c"), 1), []byte("\x01b"), []byte("\x01a"), 1)
	for name, buf := range map[string][]byte{
		"unknown tag":          framed(9, vector(0.5)),
		"+Inf":                 framed(routingProphet, vector(math.Inf(1))),
		"NaN":                  framed(routingProphet, vector(math.NaN())),
		"above one":            framed(routingProphet, vector(1e300)),
		"negative":             framed(routingProphet, vector(-0.1)),
		"maxprop row above 1":  framed(routingMaxProp, row),
		"unsorted keys":        framed(routingProphet, unsorted),
		"forged count":         framed(routingProphet, []byte{0, 0xff, 0xff, 0x03}),
		"trailing bytes":       framed(routingProphet, append(vector(0.5), 0)),
		"body past the input":  framed(routingProphet, vector(0.5))[:8],
		"wrong policy for tag": framed(routingMaxProp, vector(0.5)),
	} {
		d := NewDecoder(buf)
		if got, delta := d.routingFrame(); got != nil || delta != nil || d.Err() == nil {
			t.Errorf("%s: decoded %v, err %v", name, got, d.Err())
		}
	}
}

func sampleKnowledge(t *testing.T) *vclock.Knowledge {
	t.Helper()
	k := vclock.NewKnowledge()
	for s := uint64(1); s <= 5; s++ {
		k.Add(vclock.Version{Replica: "a", Seq: s})
	}
	k.Add(vclock.Version{Replica: "b", Seq: 3})
	k.Add(vclock.Version{Replica: "b", Seq: 7})
	return k
}

func TestSyncRequestRoundTrip(t *testing.T) {
	know := sampleKnowledge(t)
	// moved's base moves after it was sized, shrinking its exception bitmap:
	// the frame's length prefix must be the size after the move.
	moved := vclock.NewKnowledge()
	for s := uint64(3); s <= 10; s++ {
		moved.Add(vclock.Version{Replica: "a", Seq: s})
	}
	moved.WireSize()
	moved.Add(vclock.Version{Replica: "a", Seq: 1})
	cases := map[string]*replica.SyncRequest{
		"exact, base moved after sizing": {TargetID: "t", Knowledge: moved},
		"exact": {
			TargetID:  "t",
			Knowledge: know,
			Epoch:     3,
			Gen:       9,
			Filter:    filter.NewAddresses("user:1"),
			MaxItems:  10,
			MaxBytes:  1 << 20,
		},
		"delta": {
			TargetID:    "t",
			Delta:       vclock.NewDelta(2, 5, know),
			StrictBytes: true,
		},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			buf, err := AppendSyncRequest(nil, req)
			if err != nil {
				t.Fatalf("AppendSyncRequest: %v", err)
			}
			got, err := DecodeSyncRequest(buf)
			if err != nil {
				t.Fatalf("DecodeSyncRequest: %v", err)
			}
			if got.TargetID != req.TargetID || got.Epoch != req.Epoch || got.Gen != req.Gen ||
				got.MaxItems != req.MaxItems || got.MaxBytes != req.MaxBytes || got.StrictBytes != req.StrictBytes {
				t.Errorf("scalar fields: got %+v, want %+v", got, req)
			}
			if (req.Knowledge == nil) != (got.Knowledge == nil) ||
				(req.Knowledge != nil && !got.Knowledge.Equal(req.Knowledge)) {
				t.Errorf("knowledge: got %v, want %v", got.Knowledge, req.Knowledge)
			}
			if (req.Delta == nil) != (got.Delta == nil) {
				t.Errorf("delta presence: got %v, want %v", got.Delta, req.Delta)
			}
			if req.Delta != nil && (got.Delta.Epoch() != req.Delta.Epoch() ||
				got.Delta.Gen() != req.Delta.Gen() || !got.Delta.Changes().Equal(req.Delta.Changes())) {
				t.Error("delta did not round-trip")
			}
			if (req.Filter == nil) != (got.Filter == nil) ||
				(req.Filter != nil && got.Filter.String() != req.Filter.String()) {
				t.Errorf("filter: got %v, want %v", got.Filter, req.Filter)
			}
		})
	}
}

// TestSyncRequestCarriesRoutingDelta: a request holding its routing state
// both whole and as a delta — as MakeSummaryRequest leaves it, Routing kept
// for the fallback round — puts only the delta on the wire, and the decoded
// request holds only the delta.
func TestSyncRequestCarriesRoutingDelta(t *testing.T) {
	for name, delta := range map[string]routing.Delta{"prophet": sampleProphetDelta(), "maxprop": sampleMaxPropDelta()} {
		req := &replica.SyncRequest{
			TargetID: "t", Delta: vclock.NewDelta(2, 6, nil),
			Routing: prophetFuzzBase, RoutingDelta: delta,
		}
		buf, err := AppendSyncRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: AppendSyncRequest: %v", name, err)
		}
		got, err := DecodeSyncRequest(buf)
		if err != nil {
			t.Fatalf("%s: DecodeSyncRequest: %v", name, err)
		}
		if got.Routing != nil || !reflect.DeepEqual(got.RoutingDelta, delta) {
			t.Errorf("%s: decoded routing %v, delta %#v; want only the delta %#v", name, got.Routing, got.RoutingDelta, delta)
		}
	}
	type foreign struct{ routing.Delta }
	if _, err := AppendSyncRequest(nil, &replica.SyncRequest{Delta: vclock.NewDelta(1, 2, nil), RoutingDelta: foreign{}}); err == nil {
		t.Error("a delta type outside the tag set encoded")
	}
}

func TestSyncRequestMultipleFramesRejected(t *testing.T) {
	know := sampleKnowledge(t)
	req := &replica.SyncRequest{Knowledge: know, Delta: vclock.NewDelta(1, 2, know)}
	if _, err := AppendSyncRequest(nil, req); err == nil {
		t.Error("request with two knowledge frames encoded")
	}
}

// TestSyncRequestUnknownKnowledgeTagRejected: a knowledge frame whose tag is
// not exact, delta or none fails to decode even when the length and body
// after it are well-formed. Tag 2 carried the retired Bloom digest; an old
// peer's digest request is hostile input like any other unknown tag.
func TestSyncRequestUnknownKnowledgeTagRejected(t *testing.T) {
	exact, err := AppendSyncRequest(nil, &replica.SyncRequest{TargetID: "t", Knowledge: sampleKnowledge(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSyncRequest(exact); err != nil {
		t.Fatalf("untouched exact request: %v", err)
	}
	for _, tag := range []byte{2, 4, 255} {
		_, err := DecodeSyncRequest(retagKnowledge(exact, "t", tag))
		if want := fmt.Sprintf("unknown knowledge tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tag %d: decode error %v, want %q", tag, err, want)
		}
	}
}

func TestSyncResponseRoundTrip(t *testing.T) {
	resp := &replica.SyncResponse{
		SourceID: "s",
		Items: []replica.BatchItem{
			{Item: testItem(), Transient: item.TransientMap{item.FieldCopies: 2}.Transient(), Priority: routing.Priority{Class: 3, Cost: 1.5}},
			{Item: &item.Item{ID: item.ID{Creator: "b", Num: 1}, Version: vclock.Version{Replica: "b", Seq: 1}}},
		},
		Truncated:        true,
		LearnedKnowledge: sampleKnowledge(t),
	}
	buf, err := AppendSyncResponse(nil, resp)
	if err != nil {
		t.Fatalf("AppendSyncResponse: %v", err)
	}
	got, err := DecodeSyncResponse(buf)
	if err != nil {
		t.Fatalf("DecodeSyncResponse: %v", err)
	}
	if got.SourceID != resp.SourceID || got.Truncated != resp.Truncated || got.NeedKnowledge != resp.NeedKnowledge {
		t.Errorf("scalar fields: got %+v", got)
	}
	if !reflect.DeepEqual(got.Items, resp.Items) {
		t.Errorf("items:\n got %+v\nwant %+v", got.Items, resp.Items)
	}
	if got.LearnedKnowledge == nil || !got.LearnedKnowledge.Equal(resp.LearnedKnowledge) {
		t.Errorf("learned knowledge: got %v", got.LearnedKnowledge)
	}

	empty := &replica.SyncResponse{SourceID: "s", NeedKnowledge: true}
	buf, err = AppendSyncResponse(nil, empty)
	if err != nil {
		t.Fatalf("AppendSyncResponse: %v", err)
	}
	got, err = DecodeSyncResponse(buf)
	if err != nil {
		t.Fatalf("DecodeSyncResponse: %v", err)
	}
	if !got.NeedKnowledge || got.Items != nil || got.LearnedKnowledge != nil {
		t.Errorf("empty response: got %+v", got)
	}
}

func TestSyncResponseForgedCount(t *testing.T) {
	var buf []byte
	buf = append(buf, CodecVersion)
	buf = prim.AppendString(buf, "s")
	buf = prim.AppendUvarint(buf, 1<<50) // forged item count
	if _, err := DecodeSyncResponse(buf); err == nil {
		t.Error("forged item count decoded")
	}
}

func TestDoneRoundTrip(t *testing.T) {
	buf := AppendDone(nil, 17)
	got, err := DecodeDone(buf)
	if err != nil || got != 17 {
		t.Errorf("DecodeDone = %d, %v", got, err)
	}
	if _, err := DecodeDone(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestMutationsRoundTrip(t *testing.T) {
	know, err := sampleKnowledge(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	muts := []replica.Mutation{
		{Kind: replica.MutPut, Entry: &store.EntrySnapshot{Item: testItem(), Transient: item.TransientMap{item.FieldTTL: 2}, Local: true, Arrival: 5}, NextArrival: 6},
		{Kind: replica.MutRemove, ID: item.ID{Creator: "a", Num: 7}, NextArrival: 7},
		{Kind: replica.MutLearn, Versions: []vclock.Version{{Replica: "a", Seq: 9}}, Seq: 4},
		{Kind: replica.MutMerge, Knowledge: know},
		{Kind: replica.MutIdentity, Own: []string{"user:1"}, FilterAddrs: []string{"user:1", "user:2"}},
		{Kind: replica.MutIdentity, Own: []string{}, FilterAddrs: nil},
	}
	buf, err := AppendMutations(nil, muts)
	if err != nil {
		t.Fatalf("AppendMutations: %v", err)
	}
	got, err := DecodeMutations(buf)
	if err != nil {
		t.Fatalf("DecodeMutations: %v", err)
	}
	if !reflect.DeepEqual(got, muts) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, muts)
	}
	// The nil-vs-empty distinctions that carry meaning must survive.
	if got[4].FilterAddrs == nil {
		t.Error("non-nil FilterAddrs decoded as nil")
	}
	if got[5].FilterAddrs != nil {
		t.Error("nil FilterAddrs decoded as non-nil")
	}
}

func TestMutationsPoisonMarker(t *testing.T) {
	muts := []replica.Mutation{{Kind: replica.MutMerge, Knowledge: nil}}
	buf, err := AppendMutations(nil, muts)
	if err != nil {
		t.Fatalf("AppendMutations: %v", err)
	}
	got, err := DecodeMutations(buf)
	if err != nil {
		t.Fatalf("DecodeMutations: %v", err)
	}
	if got[0].Knowledge != nil {
		t.Error("poison-marker nil Knowledge decoded as non-nil")
	}
}

func TestMutationsUnknownKind(t *testing.T) {
	muts := []replica.Mutation{{Kind: 99}}
	if _, err := AppendMutations(nil, muts); err == nil {
		t.Error("unknown kind encoded")
	}
	var buf []byte
	buf = append(buf, CodecVersion)
	buf = prim.AppendUvarint(buf, 1)
	buf = append(buf, 99)
	if _, err := DecodeMutations(buf); err == nil {
		t.Error("unknown kind decoded")
	}
}

func TestCodecVersionRejected(t *testing.T) {
	muts := []replica.Mutation{{Kind: replica.MutRemove, ID: item.ID{Creator: "a", Num: 1}}}
	buf, err := AppendMutations(nil, muts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, CodecVersion + 1} { // the layout before front-coded knowledge, and a future one
		buf[0] = v
		if _, err := DecodeMutations(buf); err == nil {
			t.Errorf("codec version %d decoded", v)
		}
	}
}

// TestAppendAllocs proves the append side is zero-alloc once the caller's
// buffer has capacity — the property the WAL hot path depends on.
func TestAppendAllocs(t *testing.T) {
	e := &store.EntrySnapshot{Item: testItem(), Transient: item.TransientMap{item.FieldTTL: 1}, Arrival: 3}
	muts := []replica.Mutation{
		{Kind: replica.MutPut, Entry: e, NextArrival: 4},
		{Kind: replica.MutLearn, Versions: []vclock.Version{{Replica: "a", Seq: 9}}, Seq: 4},
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendMutations(buf[:0], muts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AppendMutations allocates %.1f times per call with a warm buffer", allocs)
	}
}
