package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the flat, single-directory filesystem a DB runs on. Two
// implementations exist: OSFS for real deployments and MemFS for the
// deterministic emulator and the crash-point test matrix. The interface is
// deliberately shaped around the durability operations the WAL's correctness
// argument relies on — per-file Sync and whole-directory SyncDir — so a
// simulated crash can be exact about which of them had happened.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// ReadFile returns the full contents of name. A missing file is
	// reported with an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file. Durable only
	// after SyncDir, like the data blocks of a created file are only
	// durable after its Sync.
	Rename(oldname, newname string) error
	// Remove deletes name; missing files are not an error (removal is
	// always cleanup of files the manifest no longer references).
	Remove(name string) error
	// SyncDir makes the directory's current name→file mapping durable:
	// creations, renames, and removals issued before it survive a crash.
	SyncDir() error
	// List returns the directory's file names in sorted order.
	List() ([]string, error)
}

// File is a writable file handle.
type File interface {
	Write(p []byte) (int, error)
	// Sync makes every byte written so far durable.
	Sync() error
	Close() error
}

// OSFS is the FS over a real directory. Its SyncDir fsyncs the directory
// file descriptor, which is what actually commits renames on Linux
// filesystems: without it a crash can roll a renamed manifest back.
type OSFS struct {
	Dir string
}

// NewOSFS creates the directory (and parents) if needed and returns an FS
// rooted there.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir %s: %w", dir, err)
	}
	return &OSFS{Dir: dir}, nil
}

func (o *OSFS) path(name string) string { return filepath.Join(o.Dir, name) }

// Create implements FS.
func (o *OSFS) Create(name string) (File, error) {
	return os.Create(o.path(name))
}

// ReadFile implements FS.
func (o *OSFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(o.path(name))
}

// Rename implements FS.
func (o *OSFS) Rename(oldname, newname string) error {
	return os.Rename(o.path(oldname), o.path(newname))
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	err := os.Remove(o.path(name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// SyncDir implements FS: fsync the directory descriptor.
func (o *OSFS) SyncDir() error {
	d, err := os.Open(o.Dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %s: %w", o.Dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close() //lint:allow errdiscard -- the sync error already aborts the commit; the close failure on a read-only directory handle adds nothing
		return fmt.Errorf("wal: sync dir %s: %w", o.Dir, err)
	}
	return d.Close()
}

// List implements FS.
func (o *OSFS) List() ([]string, error) {
	ents, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// CrashMode selects what happens to a file's unsynced byte tail when a MemFS
// crashes. Real disks land anywhere on this spectrum, which is why the
// crash-point matrix runs every scenario under all three.
type CrashMode int

const (
	// DropUnsynced loses every byte past the last Sync (write-back cache
	// fully lost). The strictest mode: recovery sees only what the WAL's
	// fsync discipline explicitly made durable.
	DropUnsynced CrashMode = iota
	// KeepUnsynced retains unsynced bytes (the cache happened to hit disk).
	// Recovery must cope with MORE data than was promised durable.
	KeepUnsynced
	// KeepHalfTail retains half of the unsynced tail, rounding down — a torn
	// write mid-record. Recovery must detect and truncate the fragment.
	KeepHalfTail
)

// errInjected marks failures injected by a MemFS crash point; once armed,
// every subsequent durability operation fails with it, modeling a process
// that dies at the first failed syscall.
var errInjected = errors.New("wal: injected crash")

// memFile is one MemFS file: its live contents plus the durable watermark.
type memFile struct {
	data   []byte
	synced int
}

// MemFS is an in-memory FS with explicit durability semantics, for the
// emulator's deterministic crash-restart and the crash-point test matrix:
//
//   - File bytes are durable only up to the file's last Sync.
//   - Directory entries (creations, renames, removals) are durable only as
//     of the last SyncDir.
//
// Crash discards everything else according to the configured CrashMode,
// leaving exactly the state a machine reboot would. SetFailAfter arms a
// deterministic crash point: the n-th subsequent durability operation (and
// every one after it) fails with an injected error, and a Write that fails
// first applies a partial prefix — a torn in-flight write.
//
// Both directory mappings reference file objects directly: a name removed or
// re-created since the last SyncDir still maps to its old object in the
// durable one. A file object lives exactly as long as either mapping
// references it, so a crash-free run holds only the files it could still
// read or recover, however many it has created and removed.
//
// All methods are safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	live    map[string]*memFile // the directory as the running process sees it
	durable map[string]*memFile // the directory as of the last SyncDir
	mode    CrashMode

	ops     int // total durability operations issued
	opsLeft int // operations until injected failure; <0 disarmed
}

// NewMemFS returns an empty MemFS with DropUnsynced crash semantics.
func NewMemFS() *MemFS {
	return &MemFS{
		live:    make(map[string]*memFile),
		opsLeft: -1,
	}
}

// SetCrashMode selects the unsynced-tail behavior of the next Crash.
func (m *MemFS) SetCrashMode(mode CrashMode) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mode = mode
}

// SetFailAfter arms the injected crash point: the next n durability
// operations (writes, syncs, dir syncs, renames, removes, creates) succeed
// and every one after them fails. n < 0 disarms.
func (m *MemFS) SetFailAfter(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.opsLeft = n
}

// Ops returns how many durability operations have been issued so far; the
// crash matrix uses a counting pass to size its injection sweep.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// step consumes one operation budget slot; it reports false once the
// injected failure point is reached. Callers hold m.mu.
func (m *MemFS) step() bool {
	m.ops++
	if m.opsLeft < 0 {
		return true
	}
	if m.opsLeft == 0 {
		return false
	}
	m.opsLeft--
	return true
}

// Crash simulates a machine crash: live state is rebuilt from the durable
// directory mapping, and each surviving file keeps its synced prefix plus
// whatever the CrashMode says about the unsynced tail. The injected failure
// point is disarmed.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := make(map[string]*memFile, len(m.durable))
	for name, f := range m.durable {
		keep := f.synced
		switch m.mode {
		case KeepUnsynced:
			keep = len(f.data)
		case KeepHalfTail:
			keep = f.synced + (len(f.data)-f.synced)/2
		}
		nf := &memFile{data: append([]byte(nil), f.data[:keep]...)}
		nf.synced = len(nf.data)
		fresh[name] = nf
	}
	m.live = fresh
	m.durable = maps.Clone(fresh)
	m.opsLeft = -1
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.step() {
		return nil, fmt.Errorf("wal: create %s: %w", name, errInjected)
	}
	f := &memFile{}
	m.live[name] = f
	return &memHandle{fs: m, f: f}, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.live[name]
	if !ok {
		return nil, fmt.Errorf("wal: read %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.step() {
		return fmt.Errorf("wal: rename %s: %w", oldname, errInjected)
	}
	f, ok := m.live[oldname]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldname, fs.ErrNotExist)
	}
	m.live[newname] = f
	delete(m.live, oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.step() {
		return fmt.Errorf("wal: remove %s: %w", name, errInjected)
	}
	delete(m.live, name)
	return nil
}

// SyncDir implements FS: the live name→file mapping becomes the durable one.
func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.step() {
		return fmt.Errorf("wal: sync dir: %w", errInjected)
	}
	m.durable = maps.Clone(m.live)
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.live))
	for name := range m.live {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is a write handle into a MemFS file.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	closed bool
}

// Write implements File. An injected failure applies a half-length prefix
// before reporting the error — the torn in-flight write real crashes leave.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fmt.Errorf("wal: write: %w", fs.ErrClosed)
	}
	if !h.fs.step() {
		n := len(p) / 2
		h.f.data = append(h.f.data, p[:n]...)
		return n, fmt.Errorf("wal: write: %w", errInjected)
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync implements File: the durable watermark advances to the current length.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fmt.Errorf("wal: sync: %w", fs.ErrClosed)
	}
	if !h.fs.step() {
		return fmt.Errorf("wal: sync: %w", errInjected)
	}
	h.f.synced = len(h.f.data)
	return nil
}

// Close implements File.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// walFileName reports whether name looks like a generated DB file; List
// callers use it to ignore strays (editor droppings, temp files from other
// tools) when scavenging.
func walFileName(name string) bool {
	return name == manifestName || strings.HasPrefix(name, segPrefix) || strings.HasPrefix(name, logPrefix)
}
