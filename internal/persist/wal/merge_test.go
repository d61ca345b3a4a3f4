package wal

// Tests for size-tiered merging: a merge never changes the recovered state,
// partial merges keep the removes that mask older segments, a merge copies
// frames it cannot vouch for rather than dropping them, and the tiering
// bounds (write amplification, segment count) hold as counts, not timings.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/itemcodec"
)

// segID is the item ID of hand-built segment records.
func segID(n uint64) item.ID { return item.ID{Creator: "node-a", Num: n} }

// putFrame frames a put of item n carrying payload.
func putFrame(tb testing.TB, n uint64, payload string) []byte {
	tb.Helper()
	e := store.EntrySnapshot{Item: &item.Item{
		ID:      segID(n),
		Version: vclock.Version{Replica: "node-a", Seq: n},
		Payload: []byte(payload),
	}}
	buf, err := appendPutRecord(nil, &e)
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// removeFrame frames a remove of item n.
func removeFrame(tb testing.TB, n uint64) []byte {
	tb.Helper()
	buf, err := appendRemoveRecord(nil, segID(n))
	if err != nil {
		tb.Fatal(err)
	}
	return buf
}

// segment builds a segment file: node-a's meta record, then frames.
func segment(tb testing.TB, frames ...[]byte) []byte {
	tb.Helper()
	know, err := vclock.NewKnowledge().MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	buf, err := appendMetaRecord(nil, &replica.Snapshot{ID: "node-a", Knowledge: know})
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// handBuiltDB lays out a directory holding segs (oldest first) and a live
// log holding only a meta record, and opens a DB over it whose segment sizes
// are known, as Attach would leave them — so a test can run exact merges.
func handBuiltDB(t *testing.T, segs ...[]byte) (*MemFS, *DB) {
	t.Helper()
	fsys := NewMemFS()
	man := manifest{Log: logName(uint64(len(segs)))}
	for i, data := range segs {
		man.Segments = append(man.Segments, segName(uint64(i)))
		if err := rewrite(fsys, segName(uint64(i)), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := rewrite(fsys, man.Log, segment(t)); err != nil {
		t.Fatal(err)
	}
	if err := commitManifest(fsys, man); err != nil {
		t.Fatal(err)
	}
	db, err := Open(fsys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range segs {
		db.segSizes = append(db.segSizes, len(data))
	}
	return fsys, db
}

// load recovers the directory's state through a fresh DB.
func load(t *testing.T, fsys FS) (*replica.Snapshot, error) {
	t.Helper()
	db, err := Open(fsys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db.Load()
}

// recordKinds counts a segment's put and remove records.
func recordKinds(t *testing.T, data []byte) (puts, removes int) {
	t.Helper()
	for off := 0; off < len(data); {
		rec, next, ok := readRecord(data, off)
		if !ok {
			t.Fatalf("damaged frame at offset %d", off)
		}
		switch rec.kind {
		case recPut:
			puts++
		case recRemove:
			removes++
		}
		off = next
	}
	return puts, removes
}

// TestMergeKeepsRemovesUntilOldest: item 1 is put in the oldest segment and
// removed in a newer one. A partial merge that covers the remove but not the
// put must carry the remove, or Load would resurrect item 1 from the oldest
// segment; a full merge has nothing older to mask and drops it. Either way
// the recovered state is what replaying the unmerged segments gives, with
// the newest record winning each ID (item 2's second version).
func TestMergeKeepsRemovesUntilOldest(t *testing.T) {
	segs := func() [][]byte {
		return [][]byte{
			segment(t, putFrame(t, 1, "one"), putFrame(t, 2, "two")),
			segment(t, removeFrame(t, 1), putFrame(t, 2, "two-v2")),
			segment(t, putFrame(t, 3, "three")),
			segment(t, removeFrame(t, 3), putFrame(t, 4, "four")),
		}
	}
	fsys, _ := handBuiltDB(t, segs()...)
	want, err := load(t, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Entries) != 2 || want.Entries[0].Item.ID != segID(2) || string(want.Entries[0].Item.Payload) != "two-v2" {
		t.Fatalf("unmerged state %+v, want items 2 (second version) and 4", want.Entries)
	}
	for _, tc := range []struct {
		from        int
		wantRemoves int
	}{
		{from: 1, wantRemoves: 2},
		{from: 0, wantRemoves: 0},
	} {
		t.Run(fmt.Sprintf("from=%d", tc.from), func(t *testing.T) {
			fsys, db := handBuiltDB(t, segs()...)
			if err := db.mergeLocked(tc.from); err != nil {
				t.Fatalf("merge: %v", err)
			}
			if len(db.man.Segments) != tc.from+1 || len(db.segSizes) != tc.from+1 {
				t.Fatalf("manifest %v, sizes %v after merging from %d", db.man.Segments, db.segSizes, tc.from)
			}
			merged, err := fsys.ReadFile(db.man.Segments[tc.from])
			if err != nil {
				t.Fatal(err)
			}
			if len(merged) != db.segSizes[tc.from] {
				t.Fatalf("recorded size %d, file %d bytes", db.segSizes[tc.from], len(merged))
			}
			if _, removes := recordKinds(t, merged); removes != tc.wantRemoves {
				t.Fatalf("merged segment carries %d removes, want %d", removes, tc.wantRemoves)
			}
			got, err := load(t, fsys)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if d := DiffSnapshots(want, got); d != "" {
				t.Fatalf("merge changed the recovered state: %s", d)
			}
		})
	}
}

// TestMergeNeverHidesCorruption: a merge does not decode a put past its item
// ID, so it copies a CRC-valid put whose body is malformed — and Load still
// reports the corruption instead of the record vanishing. A put whose ID
// itself does not decode, or IDs out of order, fail the merge outright.
func TestMergeNeverHidesCorruption(t *testing.T) {
	badBody := append(itemcodec.AppendItemID([]byte{wire.CodecVersion}, segID(2)), 0xff, 0xff)
	badPut, err := frameRecord(recPut, badBody)
	if err != nil {
		t.Fatal(err)
	}
	fsys, db := handBuiltDB(t,
		segment(t, putFrame(t, 1, "one")),
		segment(t, badPut),
		segment(t, putFrame(t, 3, "three")),
		segment(t, putFrame(t, 4, "four")),
	)
	if err := db.mergeLocked(0); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if _, err := load(t, fsys); !errors.Is(err, errCorrupt) {
		t.Fatalf("Load after merging a malformed put = %v, want errCorrupt", err)
	}

	badID, err := frameRecord(recPut, []byte{wire.CodecVersion, 0xff})
	if err != nil {
		t.Fatal(err)
	}
	for name, seg := range map[string][]byte{
		"undecodable ID": segment(t, badID),
		"out of order":   segment(t, putFrame(t, 3, "three"), putFrame(t, 2, "two")),
		"duplicate ID":   segment(t, putFrame(t, 2, "two"), removeFrame(t, 2)),
	} {
		_, db := handBuiltDB(t, segment(t, putFrame(t, 1, "one")), seg)
		if err := db.mergeLocked(0); !errors.Is(err, errCorrupt) {
			t.Errorf("%s: merge = %v, want errCorrupt", name, err)
		}
	}
}

// TestCompactionWriteAmplification runs 512 flushes of a store growing by
// one item each. Size-tiered merges rewrite each byte about once per tier,
// so the bytes merges write stay within a small multiple of log₄(flushes) ×
// the final store — rewriting the whole store every few flushes instead is
// quadratic — and the manifest never holds more than 3 segments per tier.
func TestCompactionWriteAmplification(t *testing.T) {
	const flushes = 512
	tiers := int(math.Ceil(math.Log(flushes) / math.Log(mergeWidth)))
	newReplica := func() *replica.Replica {
		return replica.New(replica.Config{ID: "amp", OwnAddresses: []string{"addr:amp"}})
	}
	merges := &mergeRecorder{FS: NewMemFS()}
	db, r := openAttached(t, merges, Options{flushEvery: 1}, newReplica)
	payload := make([]byte, 100)
	maxSegs := 0
	for i := 0; i < flushes; i++ {
		r.CreateItem(item.Metadata{Destinations: []string{"addr:x"}}, payload)
		maxSegs = max(maxSegs, len(db.man.Segments))
	}
	if err := db.Err(); err != nil {
		t.Fatalf("db poisoned: %v", err)
	}
	if maxSegs > 3*tiers+1 {
		t.Errorf("manifest reached %d segments, want <= 3·⌈log₄ %d⌉+1 = %d", maxSegs, flushes, 3*tiers+1)
	}
	// The final store's size is the one segment a full checkpoint writes.
	db2, _ := openAttached(t, merges.FS, Options{}, newReplica)
	final, err := merges.FS.ReadFile(db2.man.Segments[0])
	if err != nil {
		t.Fatal(err)
	}
	const c = 2
	amp := float64(merges.bytes) / float64(len(final))
	if bound := c * math.Log(flushes) / math.Log(mergeWidth); amp > bound {
		t.Errorf("merges wrote %d bytes = %.1f × the %d-byte final store, want <= %.1f", merges.bytes, amp, len(final), bound)
	}
	t.Logf("%d merges wrote %.2f × the final store; at most %d segments", merges.full+merges.partial, amp, maxSegs)
}

// TestMemFSForgetsRemovedFiles: MemFS holds only the file objects its live
// or durable directory names, however many files a crash-free run creates
// and removes, and crash semantics are unchanged: a removal or re-creation
// not yet made durable by SyncDir is undone by Crash.
func TestMemFSForgetsRemovedFiles(t *testing.T) {
	const cycles = 1000
	block := make([]byte, 1<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMemFS()
	for i := 0; i < cycles; i++ {
		if err := rewrite(m, segName(uint64(i)), block); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := m.Remove(segName(uint64(i - 1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := map[*memFile]bool{}
	for _, f := range m.live {
		objects[f] = true
	}
	for _, f := range m.durable {
		objects[f] = true
	}
	if len(objects) > len(m.live)+len(m.durable) || len(objects) != 2 {
		t.Errorf("%d file objects for %d live and %d durable names", len(objects), len(m.live), len(m.durable))
	}
	if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > int64(cycles*len(block)/4) {
		t.Errorf("%d create/remove cycles hold %d heap bytes for one live %d-byte file", cycles, held, len(block))
	}

	// Re-create the live file without a dir sync: the crash must restore
	// the durable object, and the removal since the last SyncDir is undone.
	last, prev := segName(cycles-1), segName(cycles-2)
	f, err := m.Create(last)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	names, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != prev || names[1] != last {
		t.Fatalf("after crash the directory holds %v, want [%s %s]", names, prev, last)
	}
	for _, name := range names {
		if data, err := m.ReadFile(name); err != nil || len(data) != len(block) {
			t.Errorf("%s after crash: %d bytes, err %v; want the durable %d", name, len(data), err, len(block))
		}
	}
}
