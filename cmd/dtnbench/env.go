package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Env records where a report's numbers were taken. Every field is read from
// the machine or the configuration, never typed.
type Env struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Dialers    int    `json:"hub_fanin_dialers"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	// Network says what the live workloads' bytes crossed: never a link.
	Network string `json:"network"`
	// WALDir, WALFilesystem and WALPolicy label durable-small's fsync
	// numbers as this machine's and this policy's.
	WALDir        string `json:"wal_dir"`
	WALFilesystem string `json:"wal_filesystem"`
	WALPolicy     string `json:"wal_policy"`
}

func environment(cfg Config) Env {
	dir, err := filepath.Abs(cfg.TmpDir)
	if err != nil {
		dir = cfg.TmpDir
	}
	return Env{
		Seed: cfg.Seed, Seconds: cfg.Seconds,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Dialers: cfg.Dialers,
		GoVersion:     runtime.Version(),
		Kernel:        firstLine("/proc/sys/kernel/osrelease"),
		CPUModel:      cpuModel(),
		Network:       "loopback TCP",
		WALDir:        dir,
		WALFilesystem: filesystemOf(dir),
		WALPolicy:     "wal.Options defaults: fsync per batch, flush every 256 batches, compact above 4 segments",
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type holding dir: the mount with the
// longest mount point that is a prefix of dir.
func filesystemOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (dir == mount || strings.HasPrefix(dir, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fstype = mount, f[2]
		}
	}
	return fstype
}
