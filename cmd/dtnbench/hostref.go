package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// hostRef measures, while a run runs, how fast the host's memory system is
// for this process: the time to read one megabyte that no cache holds.
//
// The benchmark's machine is a few cores of a shared host, and what the
// neighbours do to its memory system moves every timing here by a tenth to a
// quarter over minutes, in steps and ramps that shift whole runs (README.md,
// "Host reference"). Over sets of sixteen to thirty runs the reading tracked
// each workload's throughput, median latency and CPU time with r = 0.8–0.9,
// and dividing by it halved their run-to-run spread. So the end-to-end
// timings are reported scaled to a host that reads a megabyte in
// refNominalMicrosPerMB, and as measured under raw.*, next to the run's own
// reading, host.stream_us_per_mb.
type hostRef struct {
	// mem is an anonymous mapping: outside the Go heap, so that neither
	// heap_live_mb nor the collector's pacing sees the buffer.
	mem   []byte
	words []uint64 // mem, every page written
	next  int      // index in words of the next megabyte to read
	sink  uint64
	reads int           // megabytes read
	spent time.Duration // reading them
}

const (
	// refBufferMB is several times any cache share the process can have, so
	// a megabyte has left the caches by the time the reading comes round to
	// it again.
	refBufferMB = 64
	// refNominalMicrosPerMB is the reading on the 2-core sandbox the
	// benchmark was sized on, in a quiet stretch.
	refNominalMicrosPerMB = 190.0
	// A live pass reads refReadMB megabytes every refEvery iterations of
	// dialer 0: under 1% of a pass, some hundreds of megabytes in all.
	refEvery  = 32
	refReadMB = 4
	// emu-paper reads before each emu.Run, which lasts seconds.
	refEmuReadMB = 32

	wordsPerMB = 1 << 20 / 8
)

func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBufferMB<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host reference buffer: %w", err)
	}
	h := &hostRef{mem: mem, words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), len(mem)/8)}
	// Untouched pages would all map to the kernel's one zero page, and the
	// reading would never leave the first-level cache.
	for i := range h.words {
		h.words[i] = uint64(i)
	}
	return h, nil
}

func (h *hostRef) close() error { return syscall.Munmap(h.mem) }

// read times the reading of the buffer's next mb megabytes.
func (h *hostRef) read(mb int) {
	for ; mb > 0; mb-- {
		start := time.Now()
		var sum uint64
		for _, v := range h.words[h.next : h.next+wordsPerMB] {
			sum += v
		}
		h.spent += time.Since(start)
		h.reads++
		h.sink += sum
		h.next = (h.next + wordsPerMB) % len(h.words)
	}
}

// microsPerMB is the mean reading so far.
func (h *hostRef) microsPerMB() float64 {
	if h.reads == 0 {
		return refNominalMicrosPerMB
	}
	return micros(h.spent) / float64(h.reads)
}

// slowdown is how many times slower than the nominal host the memory system
// has been: measured timings are divided by it, measured rates multiplied.
func (h *hostRef) slowdown() float64 { return h.microsPerMB() / refNominalMicrosPerMB }
