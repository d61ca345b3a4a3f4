package wal

import (
	"errors"
	"fmt"
	"io/fs"

	"replidtn/internal/wire"
	"replidtn/internal/wire/prim"
)

// The manifest is the DB's root pointer: the one file naming which segment
// files and which log generation constitute the current state. Everything
// else in the directory is garbage the manifest does not reference. It is
// replaced atomically (temp + fsync + rename + dir fsync), so recovery
// always sees either the old or the new file set, never a mix — and because
// new segments and the new log are created and fsynced before the manifest
// rename, the referenced files are always fully durable by the time any
// manifest names them. The file is a single recManifest record in the
// shared framing (record.go), so a torn or foreign file fails its CRC.

const (
	manifestName = "MANIFEST"
	manifestTmp  = "MANIFEST.tmp"
	segPrefix    = "seg-"
	logPrefix    = "wal-"
)

// manifest is the on-disk root structure.
type manifest struct {
	// Segments are replayed in order; later segments overwrite earlier ones.
	Segments []string
	// Log is the live log generation, replayed after the segments.
	Log string
}

// segName / logName format generation numbers into file names.
func segName(n uint64) string { return fmt.Sprintf("%s%08d.seg", segPrefix, n) }
func logName(n uint64) string { return fmt.Sprintf("%s%08d.log", logPrefix, n) }

// readManifest loads the current manifest; ok is false when none exists yet
// (a fresh directory).
func readManifest(fsys FS) (man manifest, ok bool, err error) {
	data, err := fsys.ReadFile(manifestName)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return manifest{}, false, nil
		}
		return manifest{}, false, fmt.Errorf("wal: read manifest: %w", err)
	}
	man, err = decodeManifest(data)
	return man, err == nil, err
}

// decodeManifest parses the manifest file's bytes: exactly one CRC-valid
// recManifest record.
func decodeManifest(data []byte) (manifest, error) {
	rec, next, ok := readRecord(data, 0)
	if !ok || next != len(data) || rec.kind != recManifest {
		return manifest{}, fmt.Errorf("%w: manifest is not one valid manifest record", errCorrupt)
	}
	body, err := checkCodecVersion(rec.payload)
	if err != nil {
		return manifest{}, err
	}
	d := prim.NewDecoder(body)
	man := manifest{Segments: d.Strings(), Log: d.String()}
	if err := d.Finish(); err != nil {
		return manifest{}, fmt.Errorf("%w: manifest: %v", errCorrupt, err)
	}
	return man, nil
}

// commitManifest atomically replaces the manifest and makes it — and every
// file created since the last directory sync — durable.
func commitManifest(fsys FS, man manifest) error {
	buf, start := beginRecord(nil, recManifest)
	buf = append(buf, wire.CodecVersion)
	buf = prim.AppendStrings(buf, man.Segments)
	buf = prim.AppendString(buf, man.Log)
	buf, err := finishRecord(buf, start)
	if err != nil {
		return err
	}
	f, err := fsys.Create(manifestTmp)
	if err != nil {
		return fmt.Errorf("wal: create manifest temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //lint:allow errdiscard -- the write error already aborts the commit; the close failure on the doomed temp file adds nothing
		return fmt.Errorf("wal: write manifest temp: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //lint:allow errdiscard -- the sync error already aborts the commit; the close failure on the doomed temp file adds nothing
		return fmt.Errorf("wal: sync manifest temp: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close manifest temp: %w", err)
	}
	if err := fsys.Rename(manifestTmp, manifestName); err != nil {
		return fmt.Errorf("wal: commit manifest: %w", err)
	}
	if err := fsys.SyncDir(); err != nil {
		return fmt.Errorf("wal: commit manifest: %w", err)
	}
	return nil
}
