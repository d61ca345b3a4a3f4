package main

import (
	"sync/atomic"

	"replidtn/internal/persist/wal"
)

// countingFS decorates a wal.FS: it counts the bytes and syncs that reach
// the filesystem and, when a tracer is attached, records one span per Write
// and Sync under whichever span is open (the send or ApplyBatch that caused
// it). The measured phase runs it with no tracer, where it costs two atomic
// adds per call.
type countingFS struct {
	wal.FS
	bytes  atomic.Int64 // written through any file: log, segments, manifest
	syncs  atomic.Int64 // File.Sync plus SyncDir
	tracer *tracer      // nil outside the traced pass
}

func (c *countingFS) Create(name string) (wal.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

// traced runs one filesystem call, as a span when a tracer is attached.
func (c *countingFS) traced(name spanName, call func() error) error {
	if c.tracer == nil {
		return call()
	}
	s := c.tracer.begin(name)
	err := call()
	c.tracer.end(s)
	return err
}

func (c *countingFS) SyncDir() error {
	c.syncs.Add(1)
	return c.traced(spanFSSync, c.FS.SyncDir)
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	f.fs.bytes.Add(int64(len(p)))
	err = f.fs.traced(spanFSWrite, func() error {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.fs.traced(spanFSSync, f.File.Sync)
}
