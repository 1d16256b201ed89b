package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host is the report header: what a reader needs to judge whether two
// reports are comparable (ROADMAP items 1a and 1d).
type host struct {
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"` // "L2 Unified" → "2048K"
	LLCBytes   int64             `json:"llc_bytes"`
}

func probeHost() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", CPUModel: "unknown", Caches: map[string]string{}}
	// A driver's checkout is not a git repository; the commit is then unknown.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // the pattern is valid
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f)) // a missing file reads as ""
			return strings.TrimSpace(string(b))
		}
		level, size := read("level"), read("size")
		if level == "" || size == "" {
			continue
		}
		h.Caches["L"+level+" "+read("type")] = size
		if kb, err := strconv.ParseInt(strings.TrimSuffix(size, "K"), 10, 64); err == nil && kb<<10 > h.LLCBytes {
			h.LLCBytes = kb << 10
		}
	}
	return h
}

func (h host) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s commit=%s cpu=%q caches=%v",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit, h.CPUModel, h.Caches)
}

// memAvailable reads MemAvailable from /proc/meminfo, in bytes; 0 if it
// cannot.
func memAvailable() int64 {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "MemAvailable:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// triad measures sustainable memory bandwidth the way STREAM's triad does:
// a[i] = b[i] + s·c[i] over three arrays of total bytes together, or four
// times the last-level cache if total is 0, capped at an eighth of available
// memory. It returns GB/s (24 bytes per element, as STREAM counts them), the
// size of one array, and whether the 4× rule was met.
func triad(total, llc int64) (gbps, arrayMiB float64, met bool) {
	if total == 0 {
		total = 4 * max(llc, 64<<20)
	}
	met = total >= 4*llc
	if limit := memAvailable() / 8; limit > 0 && total > limit {
		total, met = limit, false
	}
	n := int(total / 3 / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if a[n/2] != 7 {
		panic("triad: wrong result") // only a miscompile could get here
	}
	return 24 * float64(n) / best.Seconds() / 1e9, float64(8*n) / (1 << 20), met
}
