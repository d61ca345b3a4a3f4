package wal

// Tests for the record codec's edges: the encode-side framing limit (an
// oversized record must fail the append, not poison recovery), and the
// readers' treatment of CRC-valid records they must not accept — a
// malformed body, a retired record kind, a damaged manifest.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"replidtn/internal/item"
	"replidtn/internal/replica"
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
	db, err := Open(fsys, Options{FlushEvery: -1})
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
	st := newRecState()
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
	if _, err := appendMetaRecord(nil, walMeta{ID: "x", PolicyState: make([]byte, 128)}); !errors.Is(err, errRecordTooLarge) {
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
	seg, err := appendMetaRecord(nil, walMeta{ID: "node-a"}) // a minimal valid segment
	if err != nil {
		t.Fatal(err)
	}
	for kind := uint8(1); kind <= 4; kind++ {
		retired, err := frameRecord(kind, []byte("gob body"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newRecState().replayLog(append(append([]byte(nil), log...), retired...)); !errors.Is(err, errCorrupt) {
			t.Errorf("log reader on kind %d: err = %v, want errCorrupt", kind, err)
		}
		if err := newRecState().replaySegment(append(append([]byte(nil), seg...), retired...)); !errors.Is(err, errCorrupt) {
			t.Errorf("segment reader on kind %d: err = %v, want errCorrupt", kind, err)
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
	meta, err := appendMetaRecord(nil, walMeta{ID: "node-a"})
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
	st := newRecState()
	if _, err := st.replayLog(bad); err == nil {
		t.Error("log reader replayed a malformed record")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("log reader error not marked corrupt: %v", err)
	}
}
