package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/citysim"
)

// citySize is the city workload's unit of work: a city-scale proactive
// telemetry mesh in citysim, long enough that data routes (two simulated
// minutes at 10k nodes route nothing; ten deliver about a fifth).
type citySize struct {
	nodes   int
	horizon time.Duration
}

var (
	cityFull = citySize{nodes: 10000, horizon: 10 * time.Minute}
	cityTiny = citySize{nodes: 400, horizon: 4 * time.Minute}
)

// cityRep is one citysim build and run.
type cityRep struct {
	wall, cpu time.Duration
	stats     citysim.Stats
	digest    uint64
	latMs     []float64
}

func runCityOnce(cfg citysim.Config, horizon time.Duration, tr *tracer) (cityRep, error) {
	var r cityRep
	var t0 int64
	if tr != nil {
		t0 = tr.now()
	}
	sim, err := citysim.New(cfg)
	if err != nil {
		return r, err
	}
	if tr != nil {
		tr.flat(kCityNew, t0)
		t0 = tr.now()
	}
	ph := startPhase()
	if err := sim.Run(horizon); err != nil {
		return r, err
	}
	r.wall, r.cpu = ph.stop()
	if tr != nil {
		tr.flat(kCityRun, t0)
	}
	r.stats = sim.Stats()
	r.digest = sim.Digest()
	for _, d := range sim.Deliveries() {
		r.latMs = append(r.latMs, float64(d.At-d.Born)/float64(time.Millisecond))
	}
	return r, nil
}

// cityMedians returns the median wall and CPU seconds of reps.
func cityMedians(reps []cityRep) (wall, cpu float64) {
	var walls, cpus []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	return median(walls), median(cpus)
}

// checkCity applies the city output checks to repetition i against the
// run's first repetition: one seed must give one digest, whatever the
// shard count and whether traced.
func checkCity(res *result, i int, r, first cityRep) {
	res.attempted++
	if r.digest != first.digest {
		res.failed++
		res.check(false, "rep %d (%d shards) digest %016x differs from rep 0 %016x for one seed",
			i, r.stats.Shards, r.digest, first.digest)
	}
	res.check(r.stats.Delivered > 0, "rep %d delivered no readings", i)
}

func runCity(o options) (*result, error) {
	size := cityFull
	if o.tiny {
		size = cityTiny
	}
	shards := runtime.GOMAXPROCS(0)
	res := newResult()
	res.shards = shards
	simS := size.horizon.Seconds()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var reps, traced, ones []cityRep
	var gc gcDelta
	cfg := citysim.Config{Nodes: size.nodes, Seed: o.seed, Shards: shards}
	setups, err := timeSetups(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := citysim.New(cfg)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	// A traced run rotates through an untraced repetition, the baseline
	// the tracing overhead is measured against, a 1-shard run, the one
	// parallel efficiency is measured against, and a traced repetition,
	// so that each side of both ratios is the median of as many runs.
	minReps := 2
	if o.trace {
		minReps = 3
	}
	err = repLoop(o, minReps, func(i int) error {
		var r cityRep
		var err error
		switch {
		case o.trace && i%3 == 1:
			oneShard := cfg
			oneShard.Shards = 1
			r, err = runCityOnce(oneShard, size.horizon, nil)
			ones = append(ones, r)
		case o.trace && i%3 == 2:
			gc.begin()
			r, err = runCityOnce(cfg, size.horizon, tr)
			gc.end()
			traced = append(traced, r)
		default:
			r, err = runCityOnce(cfg, size.horizon, nil)
			reps = append(reps, r)
		}
		if err != nil {
			return err
		}
		checkCity(res, i, r, reps[0])
		return nil
	})
	if err != nil {
		return nil, err
	}

	first := reps[0]
	res.samples["latency_mean_ms"] = len(first.latMs)
	res.samples["latency_p99_ms"] = len(first.latMs)
	wall, cpu := cityMedians(reps)
	if !o.trace {
		res.e2e["setup_s"] = median(setups)
		res.e2e["sim_speed"] = simS / wall
		res.e2e["cpu_s"] = cpu
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.e2e["pdr"] = first.stats.PDR()
		res.e2e["latency_mean_ms"] = mean(first.latMs)
		res.e2e["latency_p99_ms"] = quantile(first.latMs, 0.99)
		res.e2e["readings_per_s"] = float64(first.stats.Delivered) / wall
		res.e2e["success_rate"] = 1 - float64(res.failed)/float64(res.attempted)
		return res, nil
	}

	var utils []float64
	for _, r := range traced {
		utils = append(utils, r.cpu.Seconds()/r.wall.Seconds())
	}
	tWall, tCPU := cityMedians(traced)
	oneWall, _ := cityMedians(ones)
	n := float64(len(traced))
	st := first.stats
	l := res.layer
	l["citysim.new_s"] = tr.seconds(kCityNew) / n
	l["citysim.run_s"] = tr.seconds(kCityRun) / n
	l["citysim.events"] = float64(st.EventsFired)
	l["citysim.windows"] = float64(st.Windows)
	l["citysim.events_per_window"] = float64(st.EventsFired) / float64(st.Windows)
	l["citysim.fast_forwards"] = float64(st.FastForwards)
	l["citysim.frames_sent"] = float64(st.FramesSent)
	l["citysim.state_mb"] = float64(st.StateBytes) / 1e6
	l["citysim.cpu_util"] = median(utils)
	// sim_speed(N) ÷ (N × sim_speed(1)).
	l["citysim.parallel_efficiency"] = oneWall / (float64(shards) * tWall)
	l["latency.samples"] = float64(len(first.latMs))
	l["trace.sim_speed_ratio"] = wall / tWall
	l["trace.cpu_ratio"] = tCPU / cpu
	gc.report(l)
	path := filepath.Join(o.out, fmt.Sprintf("trace_city_seed%d.json", o.seed))
	if err := tr.write(path, map[string]any{"workload": "city", "seed": o.seed, "shards": shards, "traced_reps": len(traced)}); err != nil {
		return nil, err
	}
	return res, nil
}
