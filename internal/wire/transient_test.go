package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire/prim"
)

// TestTransientBytesGolden pins the transient's bytes, as a batch item and
// as an entry snapshot, for no field and each of the seven non-empty sets
// of {copies, hops, ttl}. The hex was captured from the map-based codec this
// one replaced: the layout (count, then name/float64 pairs in name order)
// is that codec's, so the protocol version and the WAL format stand.
func TestTransientBytesGolden(t *testing.T) {
	it := &item.Item{ID: item.ID{Creator: "a", Num: 1}, Version: vclock.Version{Replica: "a", Seq: 1}, Meta: item.Metadata{Kind: "m"}}
	values := item.TransientMap{item.FieldCopies: 4, item.FieldHops: 2, item.FieldTTL: 9}
	golden := []struct{ fields, batch, snapshot string }{
		{"", "0201730101610101610100000000016d0000000000000000000000000000000000", "01610101610100000000016d0000000000000003"},
		{"copies", "0201730101610101610100000000016d000000000206636f706965730000000000001040000000000000000000000000", "01610101610100000000016d000000000206636f706965730000000000001040000003"},
		{"hops", "0201730101610101610100000000016d000000000204686f70730000000000000040000000000000000000000000", "01610101610100000000016d000000000204686f70730000000000000040000003"},
		{"copies hops", "0201730101610101610100000000016d000000000306636f70696573000000000000104004686f70730000000000000040000000000000000000000000", "01610101610100000000016d000000000306636f70696573000000000000104004686f70730000000000000040000003"},
		{"ttl", "0201730101610101610100000000016d00000000020374746c0000000000002240000000000000000000000000", "01610101610100000000016d00000000020374746c0000000000002240000003"},
		{"copies ttl", "0201730101610101610100000000016d000000000306636f7069657300000000000010400374746c0000000000002240000000000000000000000000", "01610101610100000000016d000000000306636f7069657300000000000010400374746c0000000000002240000003"},
		{"hops ttl", "0201730101610101610100000000016d000000000304686f707300000000000000400374746c0000000000002240000000000000000000000000", "01610101610100000000016d000000000304686f707300000000000000400374746c0000000000002240000003"},
		{"copies hops ttl", "0201730101610101610100000000016d000000000406636f70696573000000000000104004686f707300000000000000400374746c0000000000002240000000000000000000000000", "01610101610100000000016d000000000406636f70696573000000000000104004686f707300000000000000400374746c0000000000002240000003"},
	}
	for _, g := range golden {
		var tr item.Transient
		for f := range item.NumFields {
			if strings.Contains(g.fields, f.String()) {
				tr.Set(f, values[f])
			}
		}
		resp := &replica.SyncResponse{SourceID: "s", Items: []replica.BatchItem{{Item: it, Transient: tr}}}
		batch, err := AppendSyncResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(batch); got != g.batch {
			t.Errorf("{%s} as a batch item:\n got %s\nwant %s", g.fields, got, g.batch)
		}
		if back, err := DecodeSyncResponse(batch); err != nil || back.Items[0].Transient != tr {
			t.Errorf("{%s} batch item decodes to %+v, %v", g.fields, back, err)
		}
		snap := &store.EntrySnapshot{Item: it, Transient: tr.Map(), Arrival: 3}
		if got := hex.EncodeToString(AppendEntrySnapshot(nil, snap)); got != g.snapshot {
			t.Errorf("{%s} as an entry snapshot:\n got %s\nwant %s", g.fields, got, g.snapshot)
		}
	}
}

// TestTransientDecodeRejects: the decoder knows the three fields and
// nothing else, each at most once, each an exact int32.
func TestTransientDecodeRejects(t *testing.T) {
	field := func(name string, v float64) []byte {
		return prim.AppendFloat64(prim.AppendString(nil, name), v)
	}
	for name, body := range map[string][]byte{
		"unknown key":  append([]byte{2}, field("cost", 1)...),
		"repeated key": append(append([]byte{3}, field("ttl", 1)...), field("ttl", 2)...),
		"fractional":   append([]byte{2}, field("hops", 0.5)...),
		"out of range": append([]byte{2}, field("copies", 1<<31)...),
		"truncated":    append([]byte{2}, field("ttl", 1)[:6]...),
	} {
		d := NewDecoder(body)
		if tr := d.Transient(); d.Err() == nil || tr != (item.Transient{}) {
			t.Errorf("%s: decoded %+v, err %v", name, tr, d.Err())
		}
	}
}

// TestCheckedInSeedsStillDecode: the seed corpus's response and mutation
// batches, written by the map-based codec, decode with this one and
// re-encode to the same bytes.
func TestCheckedInSeedsStillDecode(t *testing.T) {
	seed := func(name string) []byte {
		raw, err := os.ReadFile("testdata/fuzz/FuzzWireDecode/seed-" + name)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1]), ")")
		data, err := strconv.Unquote(strings.TrimPrefix(lit, "[]byte("))
		if err != nil {
			t.Fatal(err)
		}
		return []byte(data)
	}
	data := seed("response")
	resp, err := DecodeSyncResponse(data)
	if err != nil {
		t.Fatalf("response seed: %v", err)
	}
	if ttl, _ := resp.Items[0].Transient.Get(item.FieldTTL); ttl != 2 {
		t.Errorf("response seed's transient decodes to %v", resp.Items[0].Transient.Map())
	}
	if again, err := AppendSyncResponse(nil, resp); err != nil || !bytes.Equal(again, data) {
		t.Errorf("response seed re-encodes differently (%v)", err)
	}
	data = seed("mutations")
	muts, err := DecodeMutations(data)
	if err != nil {
		t.Fatalf("mutations seed: %v", err)
	}
	if again, err := AppendMutations(nil, muts); err != nil || !bytes.Equal(again, data) {
		t.Errorf("mutations seed re-encodes differently (%v)", err)
	}
}
