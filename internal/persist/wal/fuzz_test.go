package wal

// FuzzWALReplay throws hostile log bytes at the recovery readers. The replay
// path is the one place the WAL parses bytes it did not just write — a crash
// can hand it literally anything the filesystem kept — so the contract under
// fuzzing is: never panic, never over-allocate on a hostile length field, and
// keep the readers' personalities straight (the log reader truncates
// unverifiable tails, the segment and manifest readers and the merge cursor
// fail loudly). Seeds cover the interesting boundaries: a real multi-record
// log and a real merged segment, torn tails at
// every kind of cut, bit-flipped CRCs, an oversized length prefix (the PR 7
// digest lesson), CRC-valid frames with a malformed body or a retired record
// kind, and a manifest, whole and damaged. The checked-in corpus
// under testdata/fuzz mirrors these so CI fuzz smoke always starts from
// them; regenerate with WAL_GEN_CORPUS=1.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildLogBytes runs the scripted workload with flushing disabled, so the
// entire history lands in one live log file, and returns that file's bytes —
// a maximally record-dense valid input.
func buildLogBytes(tb testing.TB) []byte {
	tb.Helper()
	fsys := NewMemFS()
	env := newScriptEnv(tb)
	db, err := Open(fsys, Options{flushEvery: -1})
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		tb.Fatalf("load: %v", err)
	}
	if err := db.Attach(env.r); err != nil {
		tb.Fatalf("attach: %v", err)
	}
	env.runScript(0, scriptSteps)
	if err := db.Err(); err != nil {
		tb.Fatalf("workload poisoned: %v", err)
	}
	man, ok, err := readManifest(fsys)
	if err != nil || !ok {
		tb.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	data, err := fsys.ReadFile(man.Log)
	if err != nil {
		tb.Fatalf("read log: %v", err)
	}
	return data
}

// buildSegmentBytes runs the scripted workload flushing after every batch
// and returns the newest manifest segment, which merges have written — a
// real ID-sorted run of put and remove records.
func buildSegmentBytes(tb testing.TB) []byte {
	tb.Helper()
	fsys := NewMemFS()
	env := newScriptEnv(tb)
	db, err := Open(fsys, Options{flushEvery: 1})
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	if _, err := db.Load(); !errors.Is(err, ErrNoState) {
		tb.Fatalf("load: %v", err)
	}
	if err := db.Attach(env.r); err != nil {
		tb.Fatalf("attach: %v", err)
	}
	env.runScript(0, scriptSteps)
	data, err := fsys.ReadFile(db.man.Segments[len(db.man.Segments)-1])
	if err != nil {
		tb.Fatalf("read segment: %v", err)
	}
	return data
}

// fuzzSeeds returns the seed inputs, shared by the fuzz target and the
// corpus generator so the checked-in files never drift from f.Add.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	valid := buildLogBytes(tb)
	flipCRC := append([]byte(nil), valid...)
	flipCRC[len(flipCRC)/2] ^= 0x40
	midRecord := valid[:len(valid)-3]
	midHeader := valid[:5]
	oversize := make([]byte, recordHeaderLen+4)
	binary.LittleEndian.PutUint32(oversize[0:4], maxRecordLen+1)
	zeroLen := make([]byte, recordHeaderLen+4)
	// CRC-valid frames the readers must still reject: a malformed body (bad
	// codec version) and a retired gob-era record kind.
	badBody, err := frameRecord(recBatch, []byte{0xff, 0xff, 0xff})
	if err != nil {
		tb.Fatalf("frame bad-body seed: %v", err)
	}
	retired, err := frameRecord(2, []byte("gob body"))
	if err != nil {
		tb.Fatalf("frame retired-kind seed: %v", err)
	}
	fsys := NewMemFS()
	if err := commitManifest(fsys, manifest{Segments: []string{segName(1), segName(2)}, Log: logName(3)}); err != nil {
		tb.Fatalf("manifest seed: %v", err)
	}
	man, err := fsys.ReadFile(manifestName)
	if err != nil {
		tb.Fatalf("manifest seed: %v", err)
	}
	damagedMan := append([]byte(nil), man...)
	damagedMan[len(damagedMan)-1] ^= 0x01
	return map[string][]byte{
		"valid":            valid,
		"segment":          buildSegmentBytes(tb),
		"flip-crc":         flipCRC,
		"mid-record":       midRecord,
		"mid-header":       midHeader,
		"oversize":         oversize,
		"zero-len":         zeroLen,
		"bad-body":         append(append([]byte(nil), valid...), badBody...),
		"retired-kind":     append(append([]byte(nil), valid...), retired...),
		"manifest":         man,
		"damaged-manifest": damagedMan,
		"empty":            nil,
	}
}

func FuzzWALReplay(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The log reader: hostile bytes may truncate (torn tail) or error
		// (decodable-but-malformed record), but must never panic, and a
		// successful replay must yield a state snapshot() can serialize.
		st := newState()
		if _, err := st.replayLog(data); err == nil && st.know != nil {
			if _, err := st.snapshot(); err != nil {
				t.Fatalf("replayed log state does not snapshot: %v", err)
			}
		}
		// The segment reader: same bytes, stricter contract — anything that
		// is not a whole, valid, meta-led record sequence must error, and
		// the only acceptable outcome besides success is an error.
		st2 := newState()
		_ = st2.replaySegment(data) //lint:allow errdiscard -- the fuzz property on hostile input is "errors, never panics"; the error value itself carries no invariant
		// The merge cursor reads the same segment bytes without decoding
		// past item IDs: it must stop with an error or at the end, never panic.
		if rec, next, ok := readRecord(data, 0); ok && rec.kind == recMeta {
			c := segCursor{data: data, off: next}
			for err := c.next(); err == nil && c.frame != nil; err = c.next() {
			}
		}
		// The manifest reader: exactly one valid manifest record or an error.
		_, _ = decodeManifest(data) //lint:allow errdiscard -- same property: errors, never panics
	})
}

// TestReplayLogPrefixStability pins the torn-tail contract the crash matrix
// relies on: appending ANY junk to a valid log never changes what the valid
// prefix recovers to, unless the junk itself decodes as a valid record
// (which random junk cannot — it would need a matching CRC).
func TestReplayLogPrefixStability(t *testing.T) {
	valid := buildLogBytes(t)
	st := newState()
	if _, err := st.replayLog(valid); err != nil {
		t.Fatalf("valid log: %v", err)
	}
	want, err := st.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{{0x00}, {0xff, 0xff, 0xff, 0xff}, make([]byte, 64)} {
		st2 := newState()
		truncated, err := st2.replayLog(append(append([]byte(nil), valid...), junk...))
		if err != nil {
			t.Fatalf("junk tail %x: %v", junk, err)
		}
		if !truncated {
			t.Errorf("junk tail %x not reported as truncated", junk)
		}
		got, err := st2.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffSnapshots(want, got); d != "" {
			t.Errorf("junk tail %x changed recovered state: %s", junk, d)
		}
	}
}

// TestGenerateFuzzCorpus writes the seed corpus to testdata in the Go fuzz
// corpus encoding. Skipped unless WAL_GEN_CORPUS=1; run once and commit the
// files so CI's fuzz smoke starts from real record shapes without having to
// rediscover them.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
