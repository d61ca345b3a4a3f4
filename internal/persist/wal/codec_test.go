package wal

// Tests for the record codec's edges: the encode-side framing limit (an
// oversized record must fail the append, not poison recovery), the readers'
// treatment of CRC-valid records they must not accept — a malformed body, a
// retired record kind, a damaged manifest — the meta record's coverage of
// replica.Snapshot, and the item-ID order segments are written and merged in.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
)

// withMaxRecordLen lowers the frame limit for the duration of the test so
// over-limit records don't require materializing 64 MiB payloads.
func withMaxRecordLen(t *testing.T, limit uint32) {
	t.Helper()
	old := maxRecordLen
	maxRecordLen = limit
	t.Cleanup(func() { maxRecordLen = old })
}

// TestOversizedAppendFailsBeforeWrite is the regression test for the
// encode-side framing bug: a batch whose framed record would exceed
// maxRecordLen must poison the DB with a clear error BEFORE anything hits
// the log — previously the record was written and fsynced, then silently
// truncated as a "torn tail" at recovery, losing a durably-acknowledged
// mutation.
func TestOversizedAppendFailsBeforeWrite(t *testing.T) {
	withMaxRecordLen(t, 4<<10)
	fsys := NewMemFS()
	env := newScriptEnv(t)
	db, err := Open(fsys, Options{flushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		t.Fatalf("load: %v", err)
	}
	if err := db.Attach(env.r); err != nil {
		t.Fatalf("attach: %v", err)
	}

	// A small append under the lowered limit still works.
	env.r.CreateItem(item.Metadata{Destinations: []string{"alice"}}, []byte("small"))
	if err := db.Err(); err != nil {
		t.Fatalf("small append poisoned: %v", err)
	}
	before := mustSnapshot(t, env.r)
	logBefore, err := fsys.ReadFile(db.man.Log)
	if err != nil {
		t.Fatal(err)
	}

	// The oversized append must fail the persistence path with the framing
	// error, not write a frame recovery would reject.
	env.r.CreateItem(item.Metadata{Destinations: []string{"alice"}}, make([]byte, 8<<10))
	if err := db.Err(); !errors.Is(err, errRecordTooLarge) {
		t.Fatalf("db.Err() = %v, want errRecordTooLarge", err)
	}
	logAfter, err := fsys.ReadFile(db.man.Log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBefore, logAfter) {
		t.Fatalf("oversized append wrote %d bytes to the log", len(logAfter)-len(logBefore))
	}

	// The log still replays cleanly — no torn tail, no corruption — to the
	// state as of the last successful append.
	db2, err := Open(fsys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := db2.Load()
	if err != nil {
		t.Fatalf("recovery after oversized append: %v", err)
	}
	st := newState()
	if truncated, err := st.replayLog(logAfter); err != nil || truncated {
		t.Fatalf("log replay: truncated=%v err=%v", truncated, err)
	}
	if d := DiffSnapshots(before, snap); d != "" {
		t.Errorf("recovered state diverged: %s", d)
	}
}

// TestEncodeRecordRejectsOversized pins the limit on the record framer:
// one byte over fails, exactly at the limit passes.
func TestEncodeRecordRejectsOversized(t *testing.T) {
	withMaxRecordLen(t, 64)
	if _, err := appendMetaRecord(nil, &replica.Snapshot{ID: "x", PolicyState: make([]byte, 128)}); !errors.Is(err, errRecordTooLarge) {
		t.Errorf("appendMetaRecord: err = %v, want errRecordTooLarge", err)
	}
	if _, err := frameRecord(recBatch, make([]byte, 64)); !errors.Is(err, errRecordTooLarge) {
		t.Errorf("over the limit: err = %v, want errRecordTooLarge", err)
	}
	if _, err := frameRecord(recBatch, make([]byte, 63)); err != nil {
		t.Errorf("at the limit: %v", err)
	}
}

// TestRetiredRecordKindIsCorruption: record kinds 1–4 (the gob bodies) are
// gone. A CRC-valid record of such a kind was fully written, so it is not a
// truncatable tail — both readers must refuse it as corruption, exactly like
// any other kind they do not expect.
func TestRetiredRecordKindIsCorruption(t *testing.T) {
	log := buildLogBytes(t)
	seg, err := appendMetaRecord(nil, &replica.Snapshot{ID: "node-a"}) // a minimal valid segment
	if err != nil {
		t.Fatal(err)
	}
	for kind := uint8(1); kind <= 4; kind++ {
		retired, err := frameRecord(kind, []byte("gob body"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newState().replayLog(append(append([]byte(nil), log...), retired...)); !errors.Is(err, errCorrupt) {
			t.Errorf("log reader on kind %d: err = %v, want errCorrupt", kind, err)
		}
		if err := newState().replaySegment(append(append([]byte(nil), seg...), retired...)); !errors.Is(err, errCorrupt) {
			t.Errorf("segment reader on kind %d: err = %v, want errCorrupt", kind, err)
		}
	}
}

// TestOldCodecVersionIsRefused: every record a codec-version-1 build wrote
// (the knowledge layout before one front-coded row per creator) is a
// version mismatch for both readers, never decoded under the current
// layout; there is no reader for the old one.
func TestOldCodecVersionIsRefused(t *testing.T) {
	replayLog := func(data []byte) error { _, err := newState().replayLog(data); return err }
	for _, tc := range []struct {
		name string
		data []byte
		read func([]byte) error
	}{
		{"log", buildLogBytes(t), replayLog},
		{"segment", segment(t, putFrame(t, 1, "one")), newState().replaySegment},
	} {
		var old []byte
		for off := 0; off < len(tc.data); {
			rec, next, ok := readRecord(tc.data, off)
			if !ok {
				t.Fatalf("%s: invalid record at offset %d", tc.name, off)
			}
			framed, err := frameRecord(rec.kind, append([]byte{1}, rec.payload[1:]...))
			if err != nil {
				t.Fatal(err)
			}
			old, off = append(old, framed...), next
		}
		want := fmt.Sprintf("codec version 1, want %d", wire.CodecVersion)
		if err := tc.read(old); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s written by version 1: err = %v, want errCorrupt with %q", tc.name, err, want)
		}
	}
}

// TestDamagedManifestFailsOpen: the manifest is one CRC'd record, so a
// flipped bit, a cut, trailing junk, or a valid record of another kind in
// its place all fail Open loudly instead of silently starting from nothing.
func TestDamagedManifestFailsOpen(t *testing.T) {
	fsys := NewMemFS()
	openAttached(t, fsys, Options{}, func() *replica.Replica { return newScriptEnv(t).r })
	good, err := fsys.ReadFile(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	meta, err := appendMetaRecord(nil, &replica.Snapshot{ID: "node-a"})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"bit flip":      flipped,
		"cut":           good[:len(good)-2],
		"trailing junk": append(append([]byte(nil), good...), 0),
		"wrong kind":    meta,
		"empty":         {},
	} {
		if err := rewrite(fsys, manifestName, data); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fsys, Options{}); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: Open = %v, want errCorrupt", name, err)
		}
	}
	if err := rewrite(fsys, manifestName, good); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fsys, Options{}); err != nil {
		t.Errorf("restored manifest: %v", err)
	}
}

// TestCorruptRecordBodyFailsLoudly pins the reader personality: a CRC-valid
// frame with a malformed body is corruption, not a truncatable tail (the CRC
// passed, so the frame was fully written).
func TestCorruptRecordBodyFailsLoudly(t *testing.T) {
	valid := buildLogBytes(t)
	// Find a batch record, truncate its body by one byte, and re-frame
	// it so the CRC still validates: the record now decodes as a frame but
	// its body is malformed.
	off := 0
	var badFrame []byte
	for off < len(valid) {
		rec, next, ok := readRecord(valid, off)
		if !ok {
			t.Fatalf("invalid record at offset %d", off)
		}
		if rec.kind == recBatch {
			var err error
			badFrame, err = frameRecord(rec.kind, rec.payload[:len(rec.payload)-1])
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		off = next
	}
	if badFrame == nil {
		t.Fatal("no batch record in scripted log")
	}
	bad := append(append([]byte(nil), valid...), badFrame...)
	st := newState()
	if _, err := st.replayLog(bad); err == nil {
		t.Error("log reader replayed a malformed record")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("log reader error not marked corrupt: %v", err)
	}
}

// TestMetaRecordRoundTripsEverySnapshotField sets every replica.Snapshot
// field but Entries (which segments carry as put records) to a non-zero
// value through reflect, so a field added to Snapshot but not to the meta
// record fails here instead of vanishing on restart, as Epoch once could.
// FilterAddresses is also run nil and empty: nil keeps the configured
// filter on restore, empty is an address filter matching nothing.
func TestMetaRecordRoundTripsEverySnapshotField(t *testing.T) {
	var full replica.Snapshot
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case name == "Entries":
		case f.Kind() == reflect.String:
			f.SetString("v-" + name)
		case f.Kind() == reflect.Uint64:
			f.SetUint(uint64(1000 + i))
		case f.Type() == reflect.TypeOf([]string(nil)):
			f.Set(reflect.ValueOf([]string{name + "-a", name + "-b"}))
		case f.Type() == reflect.TypeOf([]byte(nil)):
			f.SetBytes([]byte(name))
		default:
			t.Fatalf("Snapshot.%s has type %s, which this test cannot fill: teach it, and the meta record, the field", name, f.Type())
		}
	}
	nilFilter, emptyFilter := full, full
	nilFilter.FilterAddresses = nil
	emptyFilter.FilterAddresses = []string{}
	for name, want := range map[string]replica.Snapshot{"full": full, "nil-filter": nilFilter, "empty-filter": emptyFilter} {
		buf, err := appendMetaRecord(nil, &want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, next, ok := readRecord(buf, 0)
		if !ok || next != len(buf) || rec.kind != recMeta {
			t.Fatalf("%s: readRecord = kind %d, next %d of %d, ok %v", name, rec.kind, next, len(buf), ok)
		}
		got, err := decodeMeta(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: meta record round trip\n got %#v\nwant %#v", name, got, want)
		}
	}
}

// TestIDCompareIsTheSegmentOrder pins item.ID.Compare, the order segments
// are written in, to the byte order the merge cursor reads them back in
// (segCursor.compare over the encoded creators): were they to disagree, a
// merge would refuse every segment a flush wrote as out of order. Creators
// include non-ASCII runes and prefixes of one another.
func TestIDCompareIsTheSegmentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stems := []string{"", "a", "ab", "abc", "b", "Z", "é", "éa", "日本", "日", "\x7f", "a\x00"}
	ids := make([]item.ID, 200)
	for i := range ids {
		creator := stems[rng.Intn(len(stems))]
		if rng.Intn(2) == 0 {
			creator += stems[rng.Intn(len(stems))]
		}
		ids[i] = item.ID{Creator: vclock.ReplicaID(creator), Num: uint64(rng.Intn(3)) << uint(rng.Intn(40))}
	}
	cursor := func(id item.ID) segCursor {
		buf, err := appendRemoveRecord(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		c := segCursor{name: id.String(), data: buf}
		if err := c.next(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	curs := make([]segCursor, len(ids))
	for i, id := range ids {
		curs[i] = cursor(id)
	}
	sign := func(c int) int { return min(max(c, -1), 1) }
	for i := range ids {
		for j := range ids {
			if got, want := sign(ids[i].Compare(ids[j])), sign(curs[i].compare(&curs[j])); got != want {
				t.Fatalf("%q vs %q: Compare = %d, segment byte order = %d", ids[i], ids[j], got, want)
			}
		}
	}
	// A run sorted by Compare, duplicates dropped, reads back as a valid
	// segment: the cursor accepts it as strictly ascending.
	slices.SortFunc(ids, item.ID.Compare)
	ids = slices.Compact(ids)
	var frames [][]byte
	for _, id := range ids {
		buf, err := appendRemoveRecord(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf)
	}
	data := segment(t, frames...)
	rec, next, _ := readRecord(data, 0)
	if rec.kind != recMeta {
		t.Fatal("segment does not start with its meta record")
	}
	c := segCursor{name: "sorted", data: data, off: next}
	n := 0
	for err := c.next(); c.frame != nil; err = c.next() {
		if err != nil {
			t.Fatalf("after %d of %d IDs: %v", n, len(ids), err)
		}
		n++
	}
	if n != len(ids) {
		t.Fatalf("cursor read %d of %d IDs", n, len(ids))
	}
}
