package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// envInfo is recorded in every result file, so that a number can be traced
// to the machine and build that produced it.
type envInfo struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	ASVWorkers   string `json:"asv_workers"` // "" means unset: par uses GOMAXPROCS
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	MatcherPaced string `json:"matcher_paced"` // always "no": every matcher here does real work
}

func readEnv() envInfo {
	e := envInfo{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		ASVWorkers:   os.Getenv("ASV_WORKERS"),
		GoVersion:    runtime.Version(),
		CPUModel:     "unknown",
		Commit:       "unknown",
		MatcherPaced: "no",
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// ru_maxrss is in KiB on Linux.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSMB: float64(ru.Maxrss) / 1024}
}

// memDelta is what the Go runtime allocated and collected between two
// points.
type memDelta struct {
	allocKB   float64
	gcCycles  float64
	gcPauseMs float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func (d memDelta) plus(o memDelta) memDelta {
	return memDelta{d.allocKB + o.allocKB, d.gcCycles + o.gcCycles, d.gcPauseMs + o.gcPauseMs}
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		allocKB:   float64(b.TotalAlloc-a.TotalAlloc) / 1024,
		gcCycles:  float64(b.NumGC - a.NumGC),
		gcPauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}
