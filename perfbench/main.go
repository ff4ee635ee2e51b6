// Command perfbench is the repository benchmark. It runs one of three
// workloads against the library from the outside, through each layer's
// public functions, and prints every metric by name and unit:
//
//	perfbench -workload mesh|city|ingest -seed N -seconds S -trace 0|1
//
// The workload's inputs are derived from -seed only. The run repeats the
// workload's fixed unit of work until -seconds have passed (at least
// twice, so determinism can be checked) and reports medians over the
// repetitions; on mesh the times are scaled to a reference host speed
// first (see probe.go). With -trace 0 it prints the end-to-end
// metrics; with -trace 1 it records spans around the calls into each
// layer, derives the per-layer metrics from them, and writes the spans
// out at exit.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// A failed output check prints correct=false and exits with status 1.
// METRICS.md maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's settings. tiny selects the small sizes the
// benchmark's own tests run; the command line always runs the full ones.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: mesh, city or ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the workload")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and prints per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spools and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want mesh, city or ingest)\n", o.workload)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := w(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := res.print(stdout, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		for _, p := range res.problems {
			fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", o.workload, p)
		}
		return 1
	}
	return 0
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"mesh":   runMesh,
	"city":   runCity,
	"ingest": runIngest,
}

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// defines every one of them (see METRICS.md for each workload's reading).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"sim_speed", "s/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"pdr", "ratio"},
	{"latency_mean_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"readings_per_s", "1/s"},
	{"success_rate", "ratio"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports zero for its metrics.
var perLayer = []spec{
	{"simtime.steps", "count"},
	{"simtime.step_s", "s"},
	{"simtime.self_s", "s"},
	{"core.handle_frame.calls", "count"},
	{"core.handle_frame.s", "s"},
	{"core.handle_txdone.calls", "count"},
	{"core.handle_txdone.s", "s"},
	{"core.timer.calls", "count"},
	{"core.timer.s", "s"},
	{"core.send.calls", "count"},
	{"core.send.s", "s"},
	{"routing.table_entries_mean", "count"},
	{"airmedium.transmit.calls", "count"},
	{"airmedium.transmit.s", "s"},
	{"airmedium.busy.calls", "count"},
	{"airmedium.busy.s", "s"},
	{"airmedium.eval_self_s", "s"},
	{"airmedium.delivered_frac", "ratio"},
	{"airmedium.neighborhood_rebuilds", "count"},
	{"packet.unmarshal_ns", "ns"},
	{"meshsec.verify_ns", "ns"},
	{"packet.frame_bytes_mean", "bytes"},
	{"citysim.new_s", "s"},
	{"citysim.run_s", "s"},
	{"citysim.events", "count"},
	{"citysim.windows", "count"},
	{"citysim.events_per_window", "count"},
	{"citysim.fast_forwards", "count"},
	{"citysim.frames_sent", "count"},
	{"citysim.state_mb", "MB"},
	{"citysim.cpu_util", "ratio"},
	{"citysim.parallel_efficiency", "ratio"},
	{"gateway.offer_calls", "count"},
	{"gateway.offer_s", "s"},
	{"gateway.offer_refused", "count"},
	{"gateway.pending_max", "count"},
	{"gateway.uplink_calls", "count"},
	{"gateway.uplink_rtt_p50_ms", "ms"},
	{"gateway.uplink_in_flight_max", "count"},
	{"gateway.batch_readings_mean", "count"},
	{"gateway.useful_upload_frac", "ratio"},
	{"gateway.wal_commits", "count"},
	{"backend.handle_s", "s"},
	{"generator.late_p99_ms", "ms"},
	{"generator.late_samples", "count"},
	{"latency.samples", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.sim_speed_ratio", "ratio"},
	{"trace.cpu_ratio", "ratio"},
	{"env.nproc", "count"},
	{"env.gomaxprocs", "count"},
	{"env.shards", "count"},
	{"env.probe_s", "s"},
}

// result is one run's outcome before printing.
type result struct {
	attempted, failed int64
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	// e2e and layer hold metric values by name. Per-layer names a
	// workload does not set read as zero.
	e2e, layer map[string]float64
	// samples counts the observations behind each percentile metric.
	samples map[string]int
	// shards is the parallelism the workload ran with.
	shards int
	// unscaled holds the scaled time metrics as measured, before the
	// host probe's scaling; probeS is the run's median probe CPU time.
	unscaled map[string]float64
	probeS   float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{},
		unscaled: map[string]float64{}}
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// metrics selects the printed metric set: end-to-end untraced, per-layer
// traced.
func (r *result) metrics(traced bool) (map[string]metricOut, error) {
	out := map[string]metricOut{}
	if traced {
		r.layer["env.nproc"] = float64(runtime.NumCPU())
		r.layer["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		r.layer["env.shards"] = float64(r.shards)
		r.layer["env.probe_s"] = r.probeS
		for _, s := range perLayer {
			out[s.name] = metricOut{r.layer[s.name], s.unit}
		}
		return out, nil
	}
	for _, s := range endToEnd {
		v, ok := r.e2e[s.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", s.name)
		}
		out[s.name] = metricOut{v, s.unit}
	}
	return out, nil
}

// print writes the environment line, then the result as the last line.
func (r *result) print(w io.Writer, o options) error {
	m, err := r.metrics(o.trace)
	if err != nil {
		return err
	}
	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"shards":     r.shards,
		"samples":    r.samples,
		"problems":   r.problems,
		"probe_s":    r.probeS,
		"unscaled":   r.unscaled,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": info}); err != nil {
		return err
	}
	return enc.Encode(resultOut{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	})
}

// setupTrials is how many set-ups the city and ingest workloads time
// before their repetitions, so that setup_s is a median of several: their
// repetitions take seconds, so few fit in a run. setupWarmups untimed
// set-ups go first: the first set-ups of a process took up to half again
// as long as later ones.
const (
	setupWarmups = 2
	setupTrials  = 15
)

// timeSetups times setupTrials set-ups, each from a collected heap, and
// returns their durations in seconds.
func timeSetups(setup func() (time.Duration, error)) ([]float64, error) {
	var out []float64
	for t := 0; t < setupWarmups+setupTrials; t++ {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return nil, err
		}
		if t >= setupWarmups {
			out = append(out, d.Seconds())
		}
	}
	return out, nil
}

// repLoop runs rep until the time budget is spent, at least minReps
// times. It stops early only on error. Each rep starts from a collected
// heap, so the previous rep's garbage does not decide the peak resident
// set.
func repLoop(o options, minReps int, rep func(i int) error) error {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		runtime.GC()
		if err := rep(n); err != nil {
			return err
		}
	}
	return nil
}

// fastest returns the least of a run's repetition times (0 for none).
// The ingest workload's drain, which waits on simulated round trips, is
// taken from the fastest repetition, since a busy host only ever slows
// one.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
