package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase measures one timed phase: wall and process CPU.
type phase struct {
	wall0 time.Time
	cpu0  time.Duration
}

func startPhase() phase { return phase{time.Now(), cpuTime()} }

func (p phase) stop() (wall, cpu time.Duration) {
	return time.Since(p.wall0), cpuTime() - p.cpu0
}

// gcDelta accumulates Go runtime counters over the traced repetitions.
type gcDelta struct {
	before         runtime.MemStats
	cycles, pauses float64
	allocMB        float64
	reps           int
}

func (g *gcDelta) begin() { runtime.ReadMemStats(&g.before) }

func (g *gcDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	g.cycles += float64(after.NumGC - g.before.NumGC)
	g.pauses += float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e9
	g.allocMB += float64(after.TotalAlloc-g.before.TotalAlloc) / 1e6
	g.reps++
}

// report stores the per-repetition means under the runtime.* names.
func (g *gcDelta) report(layer map[string]float64) {
	if g.reps == 0 {
		return
	}
	n := float64(g.reps)
	layer["runtime.gc_cycles"] = g.cycles / n
	layer["runtime.gc_pause_s"] = g.pauses / n
	layer["runtime.alloc_mb"] = g.allocMB / n
}
