// Package wal stores replica state durably on disk, fulfilling the paper's
// requirement that replicas and their routing policies keep "persistent data
// structures which are serialized to disk and retrieved whenever a
// synchronization operation is invoked" (§V.A). Persisting the knowledge is
// what extends the substrate's at-most-once delivery guarantee across
// process restarts: a restarted node never re-accepts versions it had
// already learned.
//
// The store is an append-only write-ahead log of replica mutations with
// periodic flushes of the in-memory delta into immutable segment files, tied
// together by an atomically-replaced manifest. The lifecycle is Open → Load
// (ErrNoState on first boot; otherwise restore the snapshot into the
// replica) → Attach → mutate freely → Checkpoint at will → Close.
//
// Shape (the classic log-structured design, cf. ROADMAP item 2):
//
//   - Every journaled mutation batch is framed, appended to the live log,
//     and fsynced before the append returns — one record per batch, so a
//     torn tail can never split a batch (operation atomicity survives any
//     crash point).
//   - The same batches fold into one in-memory state in the shape of a
//     replica.Snapshot: the current meta fields (identity, counters,
//     knowledge, policy state) and, as entries, the delta (changed entries,
//     removed IDs) since the last flush. Persisting a mutation costs
//     O(mutation), never O(store).
//   - Every flushEvery batches (256 by default) the delta is flushed: it
//     becomes an immutable segment file headed by the meta fields, the
//     manifest atomically adopts the segment and a fresh log generation, and
//     the old log is deleted.
//   - Segments are size-tiered: whenever the newest mergeWidth segments are
//     within mergeRatio of each other in size they are merged into one by
//     copying their ID-sorted record frames, never decoding them — so each
//     byte is rewritten O(log n) times and the manifest holds O(log n)
//     segments, without touching the live log.
//
// Recovery is replay(manifest segments, in order) + replay(log tail) into the
// same state type, whose entries then hold every recovered entry: the
// segments rebuild the flushed state, and the log's batches are folded by
// the same function as on the append path. A torn or corrupt record at the
// log tail is truncated, not an error — it is precisely the in-flight write
// the crash interrupted, and everything before it was fsynced. The same
// damage inside a segment or before the log's last valid record is real
// corruption and fails recovery loudly.
//
// Durability contract: items, tombstones, knowledge, counters, and identity
// are durable the moment the mutating call returns (per-record fsync).
// Routing-policy state is durable as of the last flush, and in-place
// transient tweaks policies make to stored entries while serving a sync are
// volatile — both are forwarding hints whose loss can cost efficiency but
// never correctness (at-most-once is carried by the knowledge, which is
// journaled). See DESIGN.md §13.
package wal

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"slices"
	"sync"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/store"
	"replidtn/internal/vclock"
)

// ErrNoState is reported by Load when the directory holds no persisted
// state yet (first boot).
var ErrNoState = errors.New("wal: no persisted state")

// Options tunes a DB.
type Options struct {
	// Metrics mirrors WAL activity into observability counters; nil disables.
	Metrics *obs.WALMetrics
	// flushEvery is the number of appended batches that triggers a flush (0
	// selects 256; negative disables automatic flushing — only Checkpoint and
	// Close flush). The package's tests set it to force or suppress flushes.
	flushEvery int
}

// The merge rule (DESIGN.md §13). After every flush, while the manifest's
// newest mergeWidth segments hold an oldest one at most mergeRatio times the
// newest one's size, those segments are merged into one. Merges thus combine
// segments of similar size, so a byte is rewritten about once per size tier,
// O(log₄ n) times over n flushes, and since any mergeWidth consecutive
// segments then shrink more than mergeRatio× the manifest holds O(log n).
// The rule is fixed rather than an option because every setting keeps those
// bounds and only moves constants.
const (
	mergeWidth = 4
	mergeRatio = 4
)

// DB is one replica's WAL-backed durable state, rooted in a flat directory
// on an FS. Typical lifecycle:
//
//	db, _ := wal.Open(fsys, wal.Options{})
//	snap, err := db.Load()            // ErrNoState on first boot
//	// build the replica; RestoreSnapshot(snap) unless first boot
//	db.Attach(r)                      // checkpoint now, journal from here on
//	...
//	db.Close()                        // final checkpoint, detach
//
// All methods are safe for concurrent use. Append failures (disk full, I/O
// errors, injected crashes) poison the DB: persistence stops, the replica
// keeps serving, and Err reports the cause — the node operator decides
// whether a degraded-durability node should keep running.
type DB struct {
	fsys       FS
	metrics    *obs.WALMetrics
	flushEvery int

	mu      sync.Mutex
	man     manifest
	haveMan bool
	segSeq  uint64 // next segment generation
	logSeq  uint64 // next log generation
	log     File   // live log handle (nil until Attach)
	curLog  string
	st      *state // the running state; its entries are the unflushed delta
	dirty   int    // batches appended since the last flush
	r       *replica.Replica
	loaded  bool
	err     error // sticky poison
	// buf is the append path's reusable frame scratch (guarded by mu): the
	// binary record codec appends into it, so a steady-state append allocates
	// nothing. Shrunk after unusually large batches (see maxScratchBytes).
	buf []byte

	// segSizes[i] is the byte size of man.Segments[i], which the merge rule
	// reads; known from Attach on, because Attach writes the only segment.
	segSizes []int
}

// maxScratchBytes caps the capacity db.buf retains between appends: one
// oversized batch (a multi-megabyte payload) must not pin its buffer for the
// life of the DB.
const maxScratchBytes = 4 << 20

// Open inspects the directory and returns a DB ready for Load/Attach. It
// writes nothing.
func Open(fsys FS, opts Options) (*DB, error) {
	db := &DB{
		fsys:       fsys,
		metrics:    opts.Metrics,
		flushEvery: opts.flushEvery,
	}
	if db.flushEvery == 0 {
		db.flushEvery = 256
	}
	man, ok, err := readManifest(fsys)
	if err != nil {
		return nil, err
	}
	db.man, db.haveMan = man, ok
	// Continue generation numbering past every file present — including
	// strays a crashed flush left behind — so no name is ever reused.
	names, err := fsys.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list dir: %w", err)
	}
	for _, name := range names {
		var n uint64
		if _, err := fmt.Sscanf(name, segPrefix+"%d.seg", &n); err == nil && n >= db.segSeq {
			db.segSeq = n + 1
		}
		if _, err := fmt.Sscanf(name, logPrefix+"%d.log", &n); err == nil && n >= db.logSeq {
			db.logSeq = n + 1
		}
	}
	return db, nil
}

// Err returns the sticky failure that poisoned the DB, or nil.
func (db *DB) Err() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.err
}

// Load replays the persisted state into a snapshot: manifest segments in
// order, then the live log's valid prefix, truncating a torn tail. It
// returns ErrNoState on a fresh directory and must be called before Attach.
func (db *DB) Load() (*replica.Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.r != nil {
		return nil, errors.New("wal: Load after Attach")
	}
	if !db.haveMan {
		db.loaded = true
		return nil, ErrNoState
	}
	st := newState()
	for _, seg := range db.man.Segments {
		data, err := db.fsys.ReadFile(seg)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", seg, err)
		}
		if err := st.replaySegment(data); err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg, err)
		}
	}
	data, err := db.fsys.ReadFile(db.man.Log)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("wal: read log %s: %w", db.man.Log, err)
	}
	// A missing log file is an empty tail: the manifest commit that named it
	// was durable but the log had no durable appends yet.
	truncated, err := st.replayLog(data)
	if err != nil {
		return nil, fmt.Errorf("wal: log %s: %w", db.man.Log, err)
	}
	snap, err := st.snapshot()
	if err != nil {
		return nil, err
	}
	db.loaded = true
	if db.metrics != nil {
		if truncated {
			db.metrics.TruncatedTails.Inc()
		}
		db.metrics.Recoveries.Inc()
	}
	return snap, nil
}

// Attach binds the DB to r: it checkpoints r's full current state (segment +
// fresh log + manifest swap — after which everything older in the directory
// is garbage and is deleted), then registers a journal hook so every
// subsequent mutation batch is appended and fsynced before the mutating call
// returns. r's state must be the Load result (or a fresh replica on
// ErrNoState); Attach persists whatever r holds, so a mismatch loses
// nothing but wastes the previous state.
func (db *DB) Attach(r *replica.Replica) error {
	snap, err := r.Snapshot()
	if err != nil {
		return fmt.Errorf("wal: attach: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.r != nil {
		return errors.New("wal: already attached")
	}
	if db.haveMan && !db.loaded {
		return errors.New("wal: attach over unloaded state (call Load first)")
	}
	if db.err != nil {
		return db.err
	}
	// Adopting the snapshot seeds the delta with the full state, so the
	// attach checkpoint writes everything r holds.
	st := newState()
	if err := st.adopt(snap); err != nil {
		return fmt.Errorf("wal: attach: %w", err)
	}
	db.st, db.r = st, r
	// A full checkpoint: the new segment alone carries the whole state, so
	// it must also be the only one the manifest keeps — retaining older
	// segments would resurrect entries they hold that were since removed
	// (a full segment has no remove records to mask them).
	if err := db.checkpointLocked(snap.PolicyState, true); err != nil {
		db.err = err
		db.r, db.st = nil, nil
		return err
	}
	r.Journal(db.append)
	return nil
}

// Checkpoint forces a flush now: the delta (plus fresh routing policy state)
// becomes a segment, the manifest adopts it, and the log rotates. Callers
// use it for clean shutdown points; steady-state flushing is automatic.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	r := db.r
	db.mu.Unlock()
	if r == nil {
		return errors.New("wal: Checkpoint before Attach")
	}
	// Policy state is read outside db.mu: PolicyState takes the replica
	// lock, and the journal hook (which holds db.mu) may itself be waiting
	// behind a mutating replica call.
	ps, err := r.PolicyState()
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.err != nil {
		return db.err
	}
	if err := db.checkpointLocked(ps, false); err != nil {
		db.err = err
		return err
	}
	return nil
}

// Close detaches the journal hook, checkpoints once more (unless poisoned),
// and closes the log. The DB is unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	r := db.r
	db.mu.Unlock()
	var ps []byte
	if r != nil {
		r.Journal(nil)
		var err error
		if ps, err = r.PolicyState(); err != nil {
			ps = nil
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.err
	if r != nil && err == nil {
		err = db.checkpointLocked(ps, false)
	}
	if db.log != nil {
		if cerr := db.log.Close(); cerr != nil && err == nil {
			err = cerr
		}
		db.log = nil
	}
	db.r = nil
	if db.err == nil {
		db.err = errors.New("wal: closed")
	}
	return err
}

// append is the registered journal hook: frame the batch, append, fsync,
// fold into the state, maybe flush. Any failure poisons the DB.
func (db *DB) append(muts []replica.Mutation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.err != nil {
		return
	}
	// Frame into the reusable scratch; an oversized or unencodable batch
	// fails here, before any byte reaches the log, so the on-disk state stays
	// replayable (the DB is poisoned, not the recovery path).
	frame, err := appendBatchRecord(db.buf[:0], muts)
	if err != nil {
		db.err = err
		return
	}
	db.buf = frame
	if cap(db.buf) > maxScratchBytes {
		db.buf = nil
	}
	if _, err := db.log.Write(frame); err != nil {
		db.err = fmt.Errorf("wal: append %s: %w", db.curLog, err)
		return
	}
	if err := db.log.Sync(); err != nil {
		db.err = fmt.Errorf("wal: sync %s: %w", db.curLog, err)
		return
	}
	if db.metrics != nil {
		db.metrics.Records.Inc()
		db.metrics.Bytes.Add(int64(len(frame)))
	}
	if err := db.st.apply(muts); err != nil {
		db.err = fmt.Errorf("wal: %w", err)
		return
	}
	db.dirty++
	if db.flushEvery > 0 && db.dirty >= db.flushEvery {
		// Flush with the policy state from the last checkpoint boundary:
		// reading fresh state here would need the replica lock, which a
		// mutating caller may hold while this hook runs. Policy state is
		// checkpoint-grained by contract either way.
		if err := db.checkpointLocked(db.st.meta.PolicyState, false); err != nil {
			db.err = err
		}
	}
}

// checkpointLocked flushes the delta: segment out, log rotated, manifest
// swapped, old files deleted, merges when due. When full is set the delta is
// the whole state (the attach checkpoint), so the new segment replaces every
// older one and every file it does not name is reclaimed. On failure the DB
// state is poisoned by callers; the manifest swap's atomicity means the
// directory itself is never in between states.
func (db *DB) checkpointLocked(policyState []byte, full bool) error {
	st := db.st
	st.meta.PolicyState = policyState
	snap, err := st.snapshot()
	if err != nil {
		return err
	}
	metaFrame, err := appendMetaRecord(nil, snap)
	if err != nil {
		return err
	}

	// 1. Segment: meta, then the delta's puts (snap.Entries, ID-sorted) and
	// removes merged into one run in ascending item-ID order (the order
	// merges rely on), fsynced. Frames are appended straight into the
	// segment buffer — no per-record slices.
	seg := segName(db.segSeq)
	segBuf := append([]byte(nil), metaFrame...)
	removes := make([]item.ID, 0, len(st.removes))
	for id := range st.removes {
		removes = append(removes, id)
	}
	slices.SortFunc(removes, item.ID.Compare)
	for puts := snap.Entries; err == nil && len(puts)+len(removes) > 0; {
		if len(removes) == 0 || len(puts) > 0 && puts[0].Item.ID.Compare(removes[0]) < 0 {
			segBuf, err = appendPutRecord(segBuf, &puts[0])
			puts = puts[1:]
		} else {
			segBuf, err = appendRemoveRecord(segBuf, removes[0])
			removes = removes[1:]
		}
	}
	if err != nil {
		return err
	}
	if err := writeFile(db.fsys, seg, segBuf); err != nil {
		return err
	}

	// 2. Fresh log generation headed by the same meta, fsynced. Its name and
	// the segment's become durable with the manifest commit's dir sync.
	newLog := logName(db.logSeq)
	nl, err := db.fsys.Create(newLog)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", newLog, err)
	}
	if _, err := nl.Write(metaFrame); err != nil {
		nl.Close() //lint:allow errdiscard -- the write error already aborts the flush; the close failure on the abandoned log adds nothing
		return fmt.Errorf("wal: write %s: %w", newLog, err)
	}
	if err := nl.Sync(); err != nil {
		nl.Close() //lint:allow errdiscard -- the sync error already aborts the flush; the close failure on the abandoned log adds nothing
		return fmt.Errorf("wal: sync %s: %w", newLog, err)
	}

	// 3. Manifest swap: the new segment and log become the truth atomically.
	segments := append(append([]string(nil), db.man.Segments...), seg)
	if full {
		segments = []string{seg}
	}
	man := manifest{Segments: segments, Log: newLog}
	if err := commitManifest(db.fsys, man); err != nil {
		nl.Close() //lint:allow errdiscard -- the commit error already aborts the flush; the close failure on the abandoned log adds nothing
		return err
	}
	oldLog := db.curLog
	if db.log != nil {
		if err := db.log.Close(); err != nil {
			return fmt.Errorf("wal: close %s: %w", oldLog, err)
		}
	}
	db.log, db.curLog = nl, newLog
	db.man, db.haveMan = man, true
	if full {
		db.segSizes = db.segSizes[:0]
	}
	db.segSizes = append(db.segSizes, len(segBuf))
	db.segSeq++
	db.logSeq++
	st.resetDelta()
	db.dirty = 0
	if db.metrics != nil {
		db.metrics.Flushes.Inc()
		db.metrics.Records.Inc() // the rotated log's head meta record
		db.metrics.Bytes.Add(int64(len(metaFrame)))
		db.metrics.Segments.Set(int64(len(man.Segments)))
	}

	// 4. Cleanup: the old log is unreferenced now — and, after a full
	// checkpoint, so is every other file but the new segment and log.
	// Deletion durability rides on the next commit's dir sync; recovery
	// ignores unreferenced files.
	if oldLog != "" {
		if err := db.fsys.Remove(oldLog); err != nil {
			return fmt.Errorf("wal: remove %s: %w", oldLog, err)
		}
	}
	if full {
		return db.removeUnreferenced()
	}
	// The merge rule; one merge can make the next due.
	for {
		n := len(db.segSizes)
		if n < mergeWidth || db.segSizes[n-mergeWidth] > mergeRatio*db.segSizes[n-1] {
			return nil
		}
		if err := db.mergeLocked(n - mergeWidth); err != nil {
			return err
		}
	}
}

// removeUnreferenced deletes every DB file the manifest does not name: the
// segments a full checkpoint replaced, and strays a crash mid-flush or
// mid-merge left behind (Open has already numbered past them).
func (db *DB) removeUnreferenced() error {
	names, err := db.fsys.List()
	if err != nil {
		return fmt.Errorf("wal: list dir: %w", err)
	}
	keep := map[string]bool{manifestName: true, db.man.Log: true}
	for _, seg := range db.man.Segments {
		keep[seg] = true
	}
	for _, name := range names {
		if walFileName(name) && !keep[name] {
			if err := db.fsys.Remove(name); err != nil {
				return fmt.Errorf("wal: remove %s: %w", name, err)
			}
		}
	}
	return nil
}

// mergeLocked replaces the manifest segments from index from on with one
// segment (same log). It copies record frames, never decoding past an item
// ID: the inputs' ID-sorted runs are merged with the newest input's record
// winning each ID, under the newest input's meta frame — exactly what
// replaying the inputs in order would leave. A winning remove is kept unless
// the merge includes the oldest segment: an older, unmerged segment may
// still hold a put it masks.
func (db *DB) mergeLocked(from int) error {
	inputs := db.man.Segments[from:]
	curs := make([]segCursor, len(inputs))
	var meta []byte
	size := 0
	for i, name := range inputs {
		data, err := db.fsys.ReadFile(name)
		if err != nil {
			return fmt.Errorf("wal: merge read %s: %w", name, err)
		}
		rec, next, ok := readRecord(data, 0)
		if !ok || rec.kind != recMeta {
			return fmt.Errorf("wal: merge %s: %w: segment does not start with a meta record", name, errCorrupt)
		}
		meta = data[:next]
		curs[i] = segCursor{name: name, data: data, off: next}
		if err := curs[i].next(); err != nil {
			return err
		}
		size += len(data)
	}
	buf := append(make([]byte, 0, size), meta...)
	for {
		// The smallest current ID; iterating oldest → newest, a tie goes to
		// the newer input.
		win := -1
		for i := range curs {
			if curs[i].frame != nil && (win < 0 || curs[i].compare(&curs[win]) <= 0) {
				win = i
			}
		}
		if win < 0 {
			break
		}
		w := curs[win]
		// With from == 0 nothing older is left for a remove to mask.
		if w.kind == recPut || from > 0 {
			buf = append(buf, w.frame...)
		}
		for i := range curs {
			if curs[i].frame != nil && curs[i].compare(&w) == 0 {
				if err := curs[i].next(); err != nil {
					return err
				}
			}
		}
	}
	merged := segName(db.segSeq)
	if err := writeFile(db.fsys, merged, buf); err != nil {
		return err
	}
	man := manifest{Segments: append(db.man.Segments[:from:from], merged), Log: db.man.Log}
	if err := commitManifest(db.fsys, man); err != nil {
		return err
	}
	db.man = man
	db.segSizes = append(db.segSizes[:from], len(buf))
	db.segSeq++
	for _, seg := range inputs {
		if err := db.fsys.Remove(seg); err != nil {
			return fmt.Errorf("wal: remove %s: %w", seg, err)
		}
	}
	if db.metrics != nil {
		db.metrics.Compactions.Inc()
		db.metrics.Segments.Set(int64(len(man.Segments)))
	}
	return nil
}

// segCursor walks the ID-ordered put and remove records of one segment being
// merged.
type segCursor struct {
	name    string
	data    []byte
	off     int
	frame   []byte // the current record's whole frame; nil once exhausted
	kind    uint8
	creator []byte // the current record's item ID, viewed in data
	num     uint64
}

// next advances to the following record, checking its frame (CRC), codec
// version, kind, and that item IDs strictly ascend.
func (c *segCursor) next() error {
	if c.off == len(c.data) {
		c.frame = nil
		return nil
	}
	rec, next, ok := readRecord(c.data, c.off)
	if !ok {
		return fmt.Errorf("wal: merge %s: %w: segment damaged at offset %d", c.name, errCorrupt, c.off)
	}
	if rec.kind != recPut && rec.kind != recRemove {
		return fmt.Errorf("wal: merge %s: %w: unexpected record kind %d in segment", c.name, errCorrupt, rec.kind)
	}
	creator, num, err := recordItemID(rec)
	if err != nil {
		return fmt.Errorf("wal: merge %s: %w", c.name, err)
	}
	prev := *c
	c.frame, c.kind, c.creator, c.num = c.data[c.off:next], rec.kind, creator, num
	if prev.frame != nil && prev.compare(c) >= 0 {
		return fmt.Errorf("wal: merge %s: %w: item IDs out of order at offset %d", c.name, errCorrupt, c.off)
	}
	c.off = next
	return nil
}

// compare orders two cursors' current records by item ID, as item.ID.Compare
// does.
func (c *segCursor) compare(o *segCursor) int {
	if d := bytes.Compare(c.creator, o.creator); d != 0 {
		return d
	}
	return cmp.Compare(c.num, o.num)
}

// writeFile creates name, writes data, and fsyncs it. The name's directory
// entry stays volatile until the caller's next SyncDir (the manifest commit).
func writeFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //lint:allow errdiscard -- the write error already aborts the flush; the close failure on the abandoned file adds nothing
		return fmt.Errorf("wal: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:allow errdiscard -- the sync error already aborts the flush; the close failure on the abandoned file adds nothing
		return fmt.Errorf("wal: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close %s: %w", name, err)
	}
	return nil
}

// state is the WAL's one in-memory picture of a replica's durable state, in
// the shape of a replica.Snapshot: meta holds every field but Knowledge and
// Entries, know the knowledge decoded (nil until the first adopt), and
// puts/removes the entries. On the append path puts/removes are the delta
// since the last flush; during Load puts gathers every recovered entry.
type state struct {
	meta    replica.Snapshot
	know    *vclock.Knowledge
	puts    map[item.ID]store.EntrySnapshot
	removes map[item.ID]struct{}
}

func newState() *state {
	st := &state{}
	st.resetDelta()
	return st
}

// resetDelta clears the flushed delta; the meta fields carry over.
func (st *state) resetDelta() {
	st.puts = make(map[item.ID]store.EntrySnapshot)
	st.removes = make(map[item.ID]struct{})
}

// adopt takes a snapshot (at Attach) or a decoded meta record (during Load)
// wholesale: its meta fields, its knowledge, and its entries as puts. It
// refuses a replica ID other than the one adopted before.
func (st *state) adopt(snap *replica.Snapshot) error {
	know := vclock.NewKnowledge()
	if err := know.UnmarshalBinary(snap.Knowledge); err != nil {
		return fmt.Errorf("knowledge: %w", err)
	}
	if st.know != nil && st.meta.ID != snap.ID {
		return fmt.Errorf("replica ID changed from %s to %s", st.meta.ID, snap.ID)
	}
	st.meta, st.know = *snap, know
	st.meta.Knowledge, st.meta.Entries = nil, nil
	for i := range snap.Entries {
		st.puts[snap.Entries[i].Item.ID] = snap.Entries[i]
	}
	return nil
}

// apply folds one journaled batch, on the append path and in recovery alike.
func (st *state) apply(muts []replica.Mutation) error {
	if st.know == nil {
		return errors.New("batch before any meta record")
	}
	for i := range muts {
		m := &muts[i]
		switch m.Kind {
		case replica.MutPut:
			if m.Entry == nil || m.Entry.Item == nil {
				return errors.New("put mutation without entry")
			}
			st.puts[m.Entry.Item.ID] = *m.Entry
			delete(st.removes, m.Entry.Item.ID)
			st.meta.NextArrival = m.NextArrival
		case replica.MutRemove:
			// Record the remove even when the put also happened since the
			// last flush: an older segment may hold a previous version.
			delete(st.puts, m.ID)
			st.removes[m.ID] = struct{}{}
			st.meta.NextArrival = m.NextArrival
		case replica.MutLearn:
			for _, v := range m.Versions {
				st.know.Add(v)
			}
			st.meta.Seq = m.Seq
		case replica.MutMerge:
			if m.Knowledge == nil {
				return errors.New("merge mutation without knowledge (marshal failure at the source)")
			}
			know := vclock.NewKnowledge()
			if err := know.UnmarshalBinary(m.Knowledge); err != nil {
				return fmt.Errorf("merge mutation: %w", err)
			}
			st.know = know
		case replica.MutIdentity:
			st.meta.OwnAddresses, st.meta.FilterAddresses = m.Own, m.FilterAddrs
		default:
			return fmt.Errorf("unknown mutation kind %d", m.Kind)
		}
	}
	return nil
}

// snapshot returns the state as a replica.Snapshot, the knowledge marshaled
// and puts as the entries in item-ID order: Load's result, and the body of
// every meta record (which leaves the entries out).
func (st *state) snapshot() (*replica.Snapshot, error) {
	if st.know == nil {
		return nil, fmt.Errorf("%w: no meta record recovered", errCorrupt)
	}
	know, err := st.know.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("wal: marshal knowledge: %w", err)
	}
	snap := st.meta
	snap.Knowledge = know
	for _, e := range st.puts {
		snap.Entries = append(snap.Entries, e)
	}
	slices.SortFunc(snap.Entries, func(a, b store.EntrySnapshot) int { return a.Item.ID.Compare(b.Item.ID) })
	return &snap, nil
}

// adoptRecord adopts a meta record read during recovery.
func (st *state) adoptRecord(rec record) error {
	m, err := decodeMeta(rec)
	if err != nil {
		return err
	}
	if err := st.adopt(&m); err != nil {
		return fmt.Errorf("%w: meta: %v", errCorrupt, err)
	}
	return nil
}

// replaySegment applies one segment file. Segments are immutable and were
// fsynced before any manifest referenced them: every record must check out.
func (st *state) replaySegment(data []byte) error {
	off := 0
	first := true
	for off < len(data) {
		rec, next, ok := readRecord(data, off)
		if !ok {
			return fmt.Errorf("%w: segment damaged at offset %d", errCorrupt, off)
		}
		if first && rec.kind != recMeta {
			return fmt.Errorf("%w: segment does not start with a meta record", errCorrupt)
		}
		first = false
		switch rec.kind {
		case recMeta:
			if err := st.adoptRecord(rec); err != nil {
				return err
			}
		case recPut:
			e, err := decodePut(rec)
			if err != nil {
				return err
			}
			st.puts[e.Item.ID] = e
		case recRemove:
			id, err := decodeRemove(rec)
			if err != nil {
				return err
			}
			delete(st.puts, id)
		default:
			return fmt.Errorf("%w: unexpected record kind %d in segment", errCorrupt, rec.kind)
		}
		off = next
	}
	if first {
		return fmt.Errorf("%w: empty segment", errCorrupt)
	}
	return nil
}

// replayLog applies the live log's valid prefix and reports whether a torn
// tail was truncated. Damage is only tolerated at the tail — by the fsync
// discipline, everything before the last valid record was durable, so a bad
// frame mid-log would mean silent loss and must fail instead; with
// length-prefixed framing the two are indistinguishable, so the rule is:
// the first invalid frame ends replay, and it is corruption only if the
// decodable records themselves are malformed.
func (st *state) replayLog(data []byte) (truncated bool, err error) {
	off := 0
	for off < len(data) {
		rec, next, ok := readRecord(data, off)
		if !ok {
			return true, nil // torn tail: drop data[off:]
		}
		switch rec.kind {
		case recMeta:
			if err := st.adoptRecord(rec); err != nil {
				return false, err
			}
		case recBatch:
			muts, err := decodeBatch(rec)
			if err != nil {
				return false, err
			}
			if err := st.apply(muts); err != nil {
				return false, fmt.Errorf("%w: %v", errCorrupt, err)
			}
		default:
			return false, fmt.Errorf("%w: unexpected record kind %d in log", errCorrupt, rec.kind)
		}
		off = next
	}
	return false, nil
}
