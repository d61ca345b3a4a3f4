package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"replidtn/internal/filter"
	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/routing"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/itemcodec"
)

// randomResponse draws a batch exercising every branch of the response
// layout: tombstones, priors, attrs, nil / empty / three-field transients,
// nil / empty / real payloads and destination lists, optional learned
// knowledge.
func randomResponse(rng *rand.Rand) *replica.SyncResponse {
	str := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	resp := &replica.SyncResponse{
		SourceID:      vclock.ReplicaID(str(12)),
		Truncated:     rng.Intn(2) == 0,
		NeedKnowledge: rng.Intn(8) == 0,
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		it := &item.Item{
			ID:      item.ID{Creator: vclock.ReplicaID(str(8)), Num: rng.Uint64() >> uint(rng.Intn(64))},
			Version: vclock.Version{Replica: vclock.ReplicaID(str(8)), Seq: rng.Uint64() >> uint(rng.Intn(64))},
			Deleted: rng.Intn(4) == 0,
			Meta: item.Metadata{
				Source:  str(200),
				Kind:    str(10),
				Created: rng.Int63() - rng.Int63(),
				Expires: int64(rng.Intn(1 << 20)),
			},
		}
		switch rng.Intn(3) {
		case 1:
			it.Prior = []vclock.Version{}
		case 2:
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				it.Prior = append(it.Prior, vclock.Version{Replica: vclock.ReplicaID(str(8)), Seq: uint64(rng.Intn(300))})
			}
		}
		switch rng.Intn(3) {
		case 1:
			it.Meta.Destinations = []string{}
		case 2:
			for j, m := 0, 1+rng.Intn(3); j < m; j++ {
				it.Meta.Destinations = append(it.Meta.Destinations, str(20))
			}
		}
		switch rng.Intn(3) {
		case 1:
			it.Meta.Attrs = map[string]string{}
		case 2:
			it.Meta.Attrs = map[string]string{str(6): str(6), "k": str(130)}
		}
		switch rng.Intn(3) {
		case 1:
			it.Payload = []byte{}
		case 2:
			it.Payload = make([]byte, rng.Intn(2000))
		}
		bi := replica.BatchItem{Item: it, Priority: routing.Priority{Class: routing.Class(rng.Intn(200) - 100), Cost: rng.NormFloat64()}}
		if rng.Intn(2) == 1 {
			bi.Transient = item.TransientMap{item.FieldTTL: 9, item.FieldCopies: 4, item.FieldHops: rng.Intn(1 << 31)}.Transient()
		}
		resp.Items = append(resp.Items, bi)
	}
	if rng.Intn(2) == 0 {
		know := vclock.NewKnowledge()
		for i, n := 0, rng.Intn(40); i < n; i++ {
			know.Add(vclock.Version{Replica: vclock.ReplicaID(fmt.Sprintf("r%d", rng.Intn(4))), Seq: uint64(1 + rng.Intn(60))})
		}
		resp.LearnedKnowledge = know
	}
	return resp
}

// The size pass claims to be exact: a frame reserved from it is filled to the
// last byte and never regrown.
func TestSyncResponseSizeCoversEncoding(t *testing.T) {
	check := func(seed int64) bool {
		resp := randomResponse(rand.New(rand.NewSource(seed)))
		enc, err := AppendSyncResponse(nil, resp)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if got := SyncResponseSize(resp, replica.BatchBytes(resp)); got != len(enc) {
			t.Errorf("seed %d: size pass says %d, encoding is %d bytes", seed, got, len(enc))
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// requestShapes covers every branch of the request layout: exact and delta
// knowledge, filters up to the depth cap, budgets, and the PROPHET/MaxProp
// request and delta routing frames.
func requestShapes() map[string]*replica.SyncRequest {
	know := vclock.NewKnowledge()
	for s := uint64(1); s <= 40; s += 3 {
		know.Add(vclock.Version{Replica: "a", Seq: s})
	}
	deep := filter.Filter(filter.Kind{Name: "leaf"})
	for i := 0; i < maxFilterDepth; i++ {
		deep = filter.NewOr(deep, filter.NewAddresses("user:1", "user:22"))
	}
	return map[string]*replica.SyncRequest{
		"exact":   {TargetID: "t", Knowledge: know, Epoch: 3, Gen: 1 << 40, Filter: filter.NewAddresses("user:1", "user:2"), MaxItems: 10, MaxBytes: 1 << 33},
		"budgets": {TargetID: "target", Knowledge: know, Filter: filter.All{}, MaxItems: -1, MaxBytes: -5, StrictBytes: true},
		"delta":   {Delta: vclock.NewDelta(2, 5, know), Filter: filter.None{}, RoutingDelta: sampleProphetDelta()},
		"nothing": {},
		"prophet": {TargetID: "t", Knowledge: know, Routing: prophetFuzzBase, Filter: filter.NewOr(filter.Kind{Name: "message"}, filter.NewAddresses())},
		"maxprop": {TargetID: "t", Knowledge: know, Routing: maxpropFuzzBase, Filter: deep},
		"mpdelta": {TargetID: "t", Delta: vclock.NewDelta(2, 6, nil), Routing: maxpropFuzzBase, RoutingDelta: sampleMaxPropDelta()},
	}
}

func TestSyncRequestSizeCoversEncoding(t *testing.T) {
	for name, req := range requestShapes() {
		enc, err := AppendSyncRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := SyncRequestSize(req); got != len(enc) {
			t.Errorf("%s: size pass says %d, encoding is %d bytes", name, got, len(enc))
		}
	}
}

// The transport recycles a request's frame before the request is served, so
// a concurrent connection may overwrite it while the source still reads the
// decoded knowledge, filter and routing state.
func TestDecodedRequestDoesNotAliasInput(t *testing.T) {
	for name, req := range requestShapes() {
		enc, err := AppendSyncRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		input := bytes.Clone(enc)
		got, err := DecodeSyncRequest(input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range input {
			input[i] = 0xa5
		}
		again, err := AppendSyncRequest(nil, got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, enc) {
			t.Errorf("%s: decoded request changed when its input was overwritten", name)
		}
	}
}

// dtnbench's replay — like any reader with a scratch buffer — overwrites the
// frame as soon as the decode returns; the decoded batch goes into a store.
func TestDecodedResponseDoesNotAliasInput(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		resp := randomResponse(rand.New(rand.NewSource(seed)))
		enc, err := AppendSyncResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		input := bytes.Clone(enc)
		got, err := DecodeSyncResponse(input)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range input {
			input[i] = 0xa5
		}
		again, err := AppendSyncResponse(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("seed %d: decoded response changed when its input was overwritten", seed)
		}
	}
}

// sharedFloodItems outnumbers the slots of the decoder's shared-string cache
// (prim's sharedSlots, 128).
const sharedFloodItems = 160

// stringFloodResponse is the frame a peer would send to grow the decoder's
// shared-string cache: more distinct short strings than it has slots, and
// strings longer than it keeps.
func stringFloodResponse() *replica.SyncResponse {
	resp := &replica.SyncResponse{SourceID: "flood"}
	for i := 0; i < sharedFloodItems; i++ {
		id := vclock.ReplicaID(fmt.Sprintf("r%03d", i))
		resp.Items = append(resp.Items, replica.BatchItem{Item: &item.Item{
			ID:      item.ID{Creator: id, Num: 1},
			Version: vclock.Version{Replica: id, Seq: 1},
			Meta: item.Metadata{
				Source:       fmt.Sprintf("user:%d", i),
				Destinations: []string{fmt.Sprintf("user:%d", i%7), string(bytes.Repeat([]byte{byte('a' + i%26)}, 65+i%3))},
				Kind:         "message",
			},
		}})
	}
	return resp
}

// Sharing is an allocation saving only: a flood of distinct and over-long
// strings decodes to exactly what was sent, through a cache that cannot grow,
// and a repeated string really is one string.
func TestSharedStringsAreBounded(t *testing.T) {
	resp := stringFloodResponse()
	enc, err := AppendSyncResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSyncResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatal("string flood did not round-trip")
	}

	d := NewDecoder(itemcodec.AppendItem(itemcodec.AppendItem(nil, testItem()), testItem()))
	d.ShareStrings()
	a, b := d.Item(), d.Item()
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	same := func(x, y string) bool { return x == y && unsafe.StringData(x) == unsafe.StringData(y) }
	if !same(a.Meta.Source, b.Meta.Source) || !same(a.Meta.Destinations[1], b.Meta.Destinations[1]) || !same(string(a.ID.Creator), string(b.Version.Replica)) {
		t.Error("a repeated short string was materialized twice")
	}
}
