// Package wal stores replica state durably on disk, fulfilling the paper's
// requirement that replicas and their routing policies keep "persistent data
// structures which are serialized to disk and retrieved whenever a
// synchronization operation is invoked" (§V.A). Persisting the knowledge is
// what extends the substrate's at-most-once delivery guarantee across
// process restarts: a restarted node never re-accepts versions it had
// already learned.
//
// The store is an append-only write-ahead log of replica mutations with
// periodic memtable flushes into immutable segment files, tied together by
// an atomically-replaced manifest. The lifecycle is Open → Load (ErrNoState
// on first boot; otherwise restore the snapshot into the replica) → Attach
// → mutate freely → Checkpoint at will → Close.
//
// Shape (the classic log-structured design, cf. ROADMAP item 2):
//
//   - Every journaled mutation batch is framed, appended to the live log,
//     and fsynced before the append returns — one record per batch, so a
//     torn tail can never split a batch (operation atomicity survives any
//     crash point).
//   - The same batches fold into an in-memory memtable: the delta (changed
//     entries, removed IDs, current knowledge and counters) since the last
//     flush. Persisting a mutation costs O(mutation), never O(store).
//   - Every FlushEvery batches the memtable is flushed: its delta becomes an
//     immutable segment file, the manifest atomically adopts the segment and
//     a fresh log generation, and the old log is deleted.
//   - Segments are size-tiered: whenever the newest mergeWidth segments are
//     within mergeRatio of each other in size they are merged into one by
//     copying their ID-sorted record frames, never decoding them — so each
//     byte is rewritten O(log n) times and the manifest holds O(log n)
//     segments, without touching the live log.
//
// Recovery is replay(manifest segments, in order) + replay(log tail): the
// segments rebuild the flushed state, the log replays everything since. A
// torn or corrupt record at the log tail is truncated, not an error — it is
// precisely the in-flight write the crash interrupted, and everything before
// it was fsynced. The same damage inside a segment or before the log's last
// valid record is real corruption and fails recovery loudly.
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
	"sort"
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
	// FlushEvery is the number of appended batches that triggers a memtable
	// flush (0 selects 256; negative disables automatic flushing — only
	// Checkpoint and Close flush).
	FlushEvery int
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
	mem     *memtable
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
		flushEvery: opts.FlushEvery,
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
	st := newRecState()
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
	mem, err := newMemtable(snap)
	if err != nil {
		return fmt.Errorf("wal: attach: %w", err)
	}
	db.mem = mem
	db.r = r
	// Seed the memtable delta with the full state so the attach checkpoint
	// writes everything r holds; checkpointLocked resets the delta after.
	for i := range snap.Entries {
		db.mem.puts[snap.Entries[i].Item.ID] = snap.Entries[i]
	}
	// A full checkpoint: the new segment alone carries the whole state, so
	// it must also be the only one the manifest keeps — retaining older
	// segments would resurrect entries they hold that were since removed
	// (a full segment has no remove records to mask them).
	if err := db.checkpointLocked(snap.PolicyState, true); err != nil {
		db.err = err
		db.r, db.mem = nil, nil
		return err
	}
	r.Journal(db.append)
	return nil
}

// Checkpoint forces a flush now: the memtable delta (plus fresh routing
// policy state) becomes a segment, the manifest adopts it, and the log
// rotates. Callers use it for clean shutdown points; steady-state flushing
// is automatic.
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
// fold into the memtable, maybe flush. Any failure poisons the DB.
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
	if err := db.mem.apply(muts); err != nil {
		db.err = err
		return
	}
	db.mem.dirty++
	if db.flushEvery > 0 && db.mem.dirty >= db.flushEvery {
		// Flush with the policy state from the last checkpoint boundary:
		// reading fresh state here would need the replica lock, which a
		// mutating caller may hold while this hook runs. Policy state is
		// checkpoint-grained by contract either way.
		if err := db.checkpointLocked(db.mem.policyState, false); err != nil {
			db.err = err
		}
	}
}

// checkpointLocked flushes the memtable delta: segment out, log rotated,
// manifest swapped, old files deleted, merges when due. When full is set the
// delta is the whole state (the attach checkpoint), so the new segment
// replaces every older one and every file it does not name is reclaimed. On
// failure the DB state is poisoned by callers; the manifest swap's atomicity
// means the directory itself is never in between states.
func (db *DB) checkpointLocked(policyState []byte, full bool) error {
	mem := db.mem
	mem.policyState = policyState
	meta := mem.meta()
	metaFrame, err := appendMetaRecord(nil, meta)
	if err != nil {
		return err
	}

	// 1. Segment: meta, then the delta's puts and removes as one run in
	// ascending item-ID order (the order merges rely on), fsynced. Frames are
	// appended straight into the segment buffer — no per-record slices.
	seg := segName(db.segSeq)
	segBuf := append([]byte(nil), metaFrame...)
	ids := make([]item.ID, 0, len(mem.puts)+len(mem.removes))
	for id := range mem.puts {
		ids = append(ids, id)
	}
	for id := range mem.removes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return lessID(ids[i], ids[j]) })
	for _, id := range ids {
		if e, ok := mem.puts[id]; ok {
			segBuf, err = appendPutRecord(segBuf, &e)
		} else {
			segBuf, err = appendRemoveRecord(segBuf, id)
		}
		if err != nil {
			return err
		}
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
	mem.resetDelta()
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

// compare orders two cursors' current records by item ID, as lessID does.
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

// memtable is the in-memory fold of everything journaled since the last
// flush (the delta) plus the running meta state (which is always current).
type memtable struct {
	puts    map[item.ID]store.EntrySnapshot
	removes map[item.ID]struct{}
	dirty   int // batches folded since the last flush

	id          vclock.ReplicaID
	seq         uint64
	own         []string
	filterAddrs []string
	know        *vclock.Knowledge
	nextArrival uint64
	policyState []byte
	epoch       uint64
}

// newMemtable seeds the running meta state from an attach-time snapshot.
func newMemtable(snap *replica.Snapshot) (*memtable, error) {
	know := vclock.NewKnowledge()
	if err := know.UnmarshalBinary(snap.Knowledge); err != nil {
		return nil, fmt.Errorf("wal: attach knowledge: %w", err)
	}
	return &memtable{
		puts:        make(map[item.ID]store.EntrySnapshot),
		removes:     make(map[item.ID]struct{}),
		id:          snap.ID,
		seq:         snap.Seq,
		own:         snap.OwnAddresses,
		filterAddrs: snap.FilterAddresses,
		know:        know,
		nextArrival: snap.NextArrival,
		policyState: snap.PolicyState,
		epoch:       snap.Epoch,
	}, nil
}

// apply folds one journaled batch into the memtable.
func (mt *memtable) apply(muts []replica.Mutation) error {
	for i := range muts {
		m := &muts[i]
		switch m.Kind {
		case replica.MutPut:
			if m.Entry == nil || m.Entry.Item == nil {
				return fmt.Errorf("wal: put mutation without entry")
			}
			mt.puts[m.Entry.Item.ID] = *m.Entry
			delete(mt.removes, m.Entry.Item.ID)
			mt.nextArrival = m.NextArrival
		case replica.MutRemove:
			// Record the remove even when the put also happened since the
			// last flush: an older segment may hold a previous version.
			delete(mt.puts, m.ID)
			mt.removes[m.ID] = struct{}{}
			mt.nextArrival = m.NextArrival
		case replica.MutLearn:
			for _, v := range m.Versions {
				mt.know.Add(v)
			}
			mt.seq = m.Seq
		case replica.MutMerge:
			if m.Knowledge == nil {
				return fmt.Errorf("wal: merge mutation lost its knowledge (marshal failure at the source)")
			}
			know := vclock.NewKnowledge()
			if err := know.UnmarshalBinary(m.Knowledge); err != nil {
				return fmt.Errorf("wal: merge mutation: %w", err)
			}
			mt.know = know
		case replica.MutIdentity:
			mt.own = m.Own
			mt.filterAddrs = m.FilterAddrs
		default:
			return fmt.Errorf("wal: unknown mutation kind %d", m.Kind)
		}
	}
	return nil
}

// meta captures the running meta state as a record body.
func (mt *memtable) meta() walMeta {
	know, err := mt.know.MarshalBinary()
	if err != nil {
		// Knowledge marshaling has no failure modes today; guard regardless.
		know = nil
	}
	return walMeta{
		ID:          mt.id,
		Seq:         mt.seq,
		Own:         mt.own,
		FilterAddrs: mt.filterAddrs,
		Knowledge:   know,
		NextArrival: mt.nextArrival,
		PolicyState: mt.policyState,
		Epoch:       mt.epoch,
	}
}

// resetDelta clears the flushed delta; the running meta state carries over.
func (mt *memtable) resetDelta() {
	mt.puts = make(map[item.ID]store.EntrySnapshot)
	mt.removes = make(map[item.ID]struct{})
	mt.dirty = 0
}

// recState is recovery's accumulator: the full state replayed so far.
type recState struct {
	meta     walMeta
	haveMeta bool
	entries  map[item.ID]store.EntrySnapshot
	know     *vclock.Knowledge
}

func newRecState() *recState {
	return &recState{entries: make(map[item.ID]store.EntrySnapshot)}
}

// setMeta wholesale-adopts a meta record, including its knowledge.
func (st *recState) setMeta(m walMeta) error {
	know := vclock.NewKnowledge()
	if err := know.UnmarshalBinary(m.Knowledge); err != nil {
		return fmt.Errorf("%w: meta knowledge: %v", errCorrupt, err)
	}
	if st.haveMeta && st.meta.ID != m.ID {
		return fmt.Errorf("%w: replica ID changed from %s to %s", errCorrupt, st.meta.ID, m.ID)
	}
	st.meta = m
	st.know = know
	st.haveMeta = true
	return nil
}

// replaySegment applies one segment file. Segments are immutable and were
// fsynced before any manifest referenced them: every record must check out.
func (st *recState) replaySegment(data []byte) error {
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
			m, err := decodeMeta(rec)
			if err != nil {
				return err
			}
			if err := st.setMeta(m); err != nil {
				return err
			}
		case recPut:
			e, err := decodePut(rec)
			if err != nil {
				return err
			}
			st.entries[e.Item.ID] = e
		case recRemove:
			id, err := decodeRemove(rec)
			if err != nil {
				return err
			}
			delete(st.entries, id)
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
func (st *recState) replayLog(data []byte) (truncated bool, err error) {
	off := 0
	for off < len(data) {
		rec, next, ok := readRecord(data, off)
		if !ok {
			return true, nil // torn tail: drop data[off:]
		}
		switch rec.kind {
		case recMeta:
			m, derr := decodeMeta(rec)
			if derr != nil {
				return false, derr
			}
			if derr := st.setMeta(m); derr != nil {
				return false, derr
			}
		case recBatch:
			muts, derr := decodeBatch(rec)
			if derr != nil {
				return false, derr
			}
			if derr := st.applyBatch(muts); derr != nil {
				return false, derr
			}
		default:
			return false, fmt.Errorf("%w: unexpected record kind %d in log", errCorrupt, rec.kind)
		}
		off = next
	}
	return false, nil
}

// applyBatch replays one journaled batch onto the recovered state.
func (st *recState) applyBatch(muts []replica.Mutation) error {
	if !st.haveMeta {
		return fmt.Errorf("%w: batch before any meta record", errCorrupt)
	}
	for i := range muts {
		m := &muts[i]
		switch m.Kind {
		case replica.MutPut:
			if m.Entry == nil || m.Entry.Item == nil {
				return fmt.Errorf("%w: put mutation without entry", errCorrupt)
			}
			st.entries[m.Entry.Item.ID] = *m.Entry
			st.meta.NextArrival = m.NextArrival
		case replica.MutRemove:
			delete(st.entries, m.ID)
			st.meta.NextArrival = m.NextArrival
		case replica.MutLearn:
			for _, v := range m.Versions {
				st.know.Add(v)
			}
			st.meta.Seq = m.Seq
		case replica.MutMerge:
			if m.Knowledge == nil {
				return fmt.Errorf("%w: merge mutation without knowledge", errCorrupt)
			}
			know := vclock.NewKnowledge()
			if err := know.UnmarshalBinary(m.Knowledge); err != nil {
				return fmt.Errorf("%w: merge mutation: %v", errCorrupt, err)
			}
			st.know = know
		case replica.MutIdentity:
			st.meta.Own = m.Own
			st.meta.FilterAddrs = m.FilterAddrs
		default:
			return fmt.Errorf("%w: unknown mutation kind %d", errCorrupt, m.Kind)
		}
	}
	return nil
}

// snapshot materializes the recovered state.
func (st *recState) snapshot() (*replica.Snapshot, error) {
	if !st.haveMeta {
		return nil, fmt.Errorf("%w: no meta record recovered", errCorrupt)
	}
	know, err := st.know.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("wal: marshal recovered knowledge: %w", err)
	}
	snap := &replica.Snapshot{
		ID:              st.meta.ID,
		Seq:             st.meta.Seq,
		OwnAddresses:    st.meta.Own,
		FilterAddresses: st.meta.FilterAddrs,
		Knowledge:       know,
		NextArrival:     st.meta.NextArrival,
		PolicyState:     st.meta.PolicyState,
		Epoch:           st.meta.Epoch,
	}
	for _, id := range sortedIDs(st.entries) {
		snap.Entries = append(snap.Entries, st.entries[id])
	}
	return snap, nil
}

// sortedIDs returns the map's keys in deterministic order.
func sortedIDs(m map[item.ID]store.EntrySnapshot) []item.ID {
	ids := make([]item.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return lessID(ids[i], ids[j]) })
	return ids
}

// lessID orders item IDs deterministically.
func lessID(a, b item.ID) bool {
	if a.Creator != b.Creator {
		return a.Creator < b.Creator
	}
	return a.Num < b.Num
}
