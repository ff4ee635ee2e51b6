package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/packet"
	"repro/internal/trace"
)

// ingestSize is the ingest workload's unit of work: a steady open-loop
// phase well below saturation, then a backlog burst that drains. The
// gateway takes E17's quick-ladder settings (batch 64, 2 ms WAL group
// commit, 5 ms round trip) with 2 backend shards and a stop-and-wait
// uplink per shard.
type ingestSize struct {
	// rate is the steady phase's Poisson arrival rate in readings/s over
	// steady plus ingestCooldown; dupShare of those readings is offered a
	// second time, one or two ingestHop later, as a reading that reached
	// the gateway over a second, longer path. Latency is measured on
	// readings due within steady.
	rate     float64
	steady   time.Duration
	dupShare float64
	// burst distinct readings are offered at once after the steady
	// phase: the backlog an uplink outage of burst/rate seconds leaves.
	burst   int
	origins int
}

var (
	// dupShare is E17's fleet overlap: the share of readings its fleet
	// rungs offer through a second gateway.
	ingestFull = ingestSize{rate: 2000, steady: 3 * time.Second, dupShare: 0.2, burst: 20000, origins: 64}
	ingestTiny = ingestSize{rate: 500, steady: 300 * time.Millisecond, dupShare: 0.2, burst: 500, origins: 16}
)

const (
	ingestShards = 2
	ingestRTT    = 5 * time.Millisecond
	ingestBatch  = 64
	ingestFlush  = 200 * time.Millisecond
	// ingestHop is one more hop on the path of a duplicate: the step
	// between the mesh workload's two- and three-hop latencies (174.6 ms
	// and 261.9 ms), the airtime of one telemetry frame.
	ingestHop = 87300 * time.Microsecond
	// ingestCooldown keeps offering after the measured window, so the
	// window's last readings fill their batches as the earlier ones did
	// instead of waiting out the flush interval in a final partial batch.
	ingestCooldown = ingestFlush + 100*time.Millisecond
	// ingestDrainTimeout bounds the wait for the backend to accept every
	// reading; readings still missing then count as lost.
	ingestDrainTimeout = 30 * time.Second
)

// backend wraps the sharded backend: it adds the simulated round trip,
// and stamps when each reading was first accepted. Trace ids are
// reading index + 1.
type backend struct {
	sb *gateway.ShardedBackend
	tr *tracer // nil when untraced

	mu       sync.Mutex
	accepted []time.Time
	uploaded int
	batches  int
}

var traceField = []byte(`"trace":"`)

func (b *backend) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	time.Sleep(ingestRTT)
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	var spanStart int64
	if b.tr != nil {
		spanStart = b.tr.now()
	}
	b.sb.ServeHTTP(rec, req)
	now := time.Now()
	if b.tr != nil {
		b.tr.flat(kBackend, spanStart)
	}
	if rec.status != http.StatusOK {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batches++
	for rest := body; ; {
		i := bytes.Index(rest, traceField)
		if i < 0 || len(rest) < i+len(traceField)+16 {
			break
		}
		rest = rest[i+len(traceField):]
		id, err := strconv.ParseUint(string(rest[:16]), 16, 64)
		if err != nil || id == 0 || id > uint64(len(b.accepted)) {
			continue
		}
		b.uploaded++
		if b.accepted[id-1].IsZero() {
			b.accepted[id-1] = now
		}
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// timingTransport measures every uplink POST for the traced run.
type timingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	inFlight atomic.Int64
	maxIn    atomic.Int64
	mu       sync.Mutex
	rttMs    []float64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.inFlight.Add(1)
	for m := t.maxIn.Load(); n > m && !t.maxIn.CompareAndSwap(m, n); m = t.maxIn.Load() {
	}
	start := t.tr.now()
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	rtt := time.Since(t0)
	t.tr.flat(kUplink, start)
	t.inFlight.Add(-1)
	t.mu.Lock()
	t.rttMs = append(t.rttMs, float64(rtt)/float64(time.Millisecond))
	t.mu.Unlock()
	return resp, err
}

// ingestEntry is one scheduled Offer.
type ingestEntry struct {
	at  time.Duration // due, from the phase start
	idx int
}

// ingestRep is one repetition's outcome.
type ingestRep struct {
	setup, drainWall, cpu time.Duration
	latMs, lateMs         []float64
	// refused counts first offers the gateway turned away; dupRefused
	// the second offers it recognised as duplicates, which is correct.
	offers, refused, dupRefused int
	lost, double                int
	distinct, unique            int
	// traced only
	pendingMax  int
	uploaded    int
	batches     int
	walCommits  uint64
	rttMs       []float64
	inFlightMax int64
}

func (s ingestSize) reading(seed int64, idx int) gateway.Reading {
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], mix(uint64(seed)^uint64(idx)<<16))
	return gateway.Reading{
		From:    packet.Address(2 + int(mix(uint64(seed)+uint64(idx))%uint64(s.origins))),
		To:      0x0001,
		Trace:   trace.TraceID(uint64(idx) + 1),
		Payload: p[:],
	}
}

// schedule returns the steady phase's offers in due order, the number
// of distinct readings in it, and how many of those (the first ones) are
// due within the measured window.
func (s ingestSize) schedule(seed int64) (entries []ingestEntry, n, measured int) {
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed) ^ 0x1a9e57))))
	var at time.Duration
	for {
		at += time.Duration(float64(time.Second) / s.rate * -math.Log(1-rng.Float64()))
		if at >= s.steady+ingestCooldown {
			break
		}
		if at < s.steady {
			measured++
		}
		entries = append(entries, ingestEntry{at: at, idx: n})
		if rng.Float64() < s.dupShare {
			entries = append(entries, ingestEntry{at: at + time.Duration(1+rng.Intn(2))*ingestHop, idx: n})
		}
		n++
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].at < entries[j].at })
	return entries, n, measured
}

// ingestRig is the system under test: a gateway with an on-disk WAL
// uplinking over loopback HTTP to a sharded backend.
type ingestRig struct {
	sb        *gateway.ShardedBackend
	be        *backend
	srv       *http.Server
	served    chan error
	transport *http.Transport
	tt        *timingTransport
	g         *gateway.Gateway
}

// newIngestRig builds and starts the rig for total readings, with its
// WAL under dir. A non-nil tr times every uplink POST.
func newIngestRig(total int, dir string, tr *tracer) (*ingestRig, error) {
	sb := gateway.NewShardedBackend(ingestShards)
	r := &ingestRig{
		sb:        sb,
		be:        &backend{sb: sb, tr: tr, accepted: make([]time.Time, total)},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = &http.Server{Handler: r.be}
	go func() { r.served <- r.srv.Serve(ln) }()
	var rt http.RoundTripper = r.transport
	if tr != nil {
		r.tt = &timingTransport{base: r.transport, tr: tr}
		rt = r.tt
	}
	r.g, err = gateway.New(gateway.Config{
		URLs:          sb.URLs("http://" + ln.Addr().String()),
		Addr:          0xF000,
		SpoolPath:     filepath.Join(dir, "gw.wal"),
		SpoolCapacity: 2 * total * ingestShards,
		DedupHorizon:  2 * total,
		BatchSize:     ingestBatch,
		FlushInterval: ingestFlush,
		Pipeline:      1,
		GroupCommit:   2 * time.Millisecond,
		Client:        &http.Client{Timeout: 10 * time.Second, Transport: rt},
	})
	if err != nil {
		r.stopServer() //nolint:errcheck // the gateway error is the one to report
		return nil, err
	}
	r.g.Start()
	return r, nil
}

func (r *ingestRig) stopServer() error {
	err := r.srv.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.transport.CloseIdleConnections()
	return err
}

// close stops the gateway, which flushes and closes its WAL, then the
// server; it returns once the server goroutine has exited.
func (r *ingestRig) close() error {
	err := r.g.Close()
	if serr := r.stopServer(); err == nil {
		err = serr
	}
	return err
}

// ingestSetup times building and tearing down the rig, in a fresh
// directory under out.
func ingestSetup(out string) (time.Duration, error) {
	dir, err := os.MkdirTemp(out, "ingest-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	r, err := newIngestRig(1, dir, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, r.close()
}

func runIngestOnce(size ingestSize, seed int64, dir string, tr *tracer) (r ingestRep, err error) {
	steady, nSteady, nMeasured := size.schedule(seed)
	total := nSteady + size.burst
	r.unique = total

	t0 := time.Now()
	rig, err := newIngestRig(total, dir, tr)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	closed := false
	defer func() {
		if !closed {
			rig.close() //nolint:errcheck // an earlier error is being returned
		}
	}()
	g, sb, be, tt := rig.g, rig.sb, rig.be, rig.tt

	// due holds each reading's first due time; a duplicate offer is
	// timed against its original.
	due := make([]time.Time, total)
	offer := func(idx int, at time.Time) {
		first := due[idx].IsZero()
		if first {
			due[idx] = at
		}
		rd := size.reading(seed, idx)
		rd.At = at
		var spanStart int64
		if tr != nil {
			spanStart = tr.now()
		}
		ok := g.Offer(rd)
		if tr != nil {
			tr.flat(kOffer, spanStart)
			if r.offers%ingestBatch == 0 {
				r.pendingMax = max(r.pendingMax, g.Pending())
			}
		}
		r.offers++
		switch {
		case !ok && first:
			r.refused++
		case !ok:
			r.dupRefused++
		}
	}
	waitFor := func(n int) {
		deadline := time.Now().Add(ingestDrainTimeout)
		for sb.Distinct() < n && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	ph := startPhase()
	// Steady phase: open loop, each offer timed from when it was due.
	start := time.Now()
	for _, e := range steady {
		at := start.Add(e.at)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		r.lateMs = append(r.lateMs, float64(time.Since(at))/float64(time.Millisecond))
		offer(e.idx, at)
	}
	waitFor(nSteady)
	// Burst phase: the backlog is offered at once and drains.
	start = time.Now()
	for i := nSteady; i < total; i++ {
		offer(i, start)
	}
	waitFor(total)
	r.drainWall = time.Since(start)
	_, r.cpu = ph.stop()

	closed = true
	if err := rig.close(); err != nil {
		return r, err
	}
	r.distinct = sb.Distinct()
	r.double = sb.DoubleAccepted()
	r.lost = total - r.distinct
	r.walCommits = g.Metrics().Counter("ingest.wal.commits").Value()
	be.mu.Lock()
	defer be.mu.Unlock()
	for idx := 0; idx < nMeasured; idx++ {
		if at := be.accepted[idx]; !at.IsZero() {
			r.latMs = append(r.latMs, float64(at.Sub(due[idx]))/float64(time.Millisecond))
		}
	}
	r.uploaded, r.batches = be.uploaded, be.batches
	if tt != nil {
		tt.mu.Lock()
		r.rttMs = tt.rttMs
		tt.mu.Unlock()
		r.inFlightMax = tt.maxIn.Load()
	}
	return r, nil
}

// checkIngest applies the exactly-once ledger to repetition i: every
// distinct reading offered is accepted once, none twice, none lost.
func checkIngest(res *result, i int, r ingestRep) {
	res.attempted += int64(r.offers)
	res.failed += int64(r.refused + r.lost + r.double)
	res.check(r.distinct == r.unique, "rep %d: backend accepted %d distinct readings, %d were offered", i, r.distinct, r.unique)
	res.check(r.double == 0, "rep %d: %d readings accepted by more than one shard", i, r.double)
	res.check(r.lost == 0, "rep %d: %d readings lost", i, r.lost)
	res.check(r.refused == 0, "rep %d: gateway refused %d first offers", i, r.refused)
}

func runIngest(o options) (*result, error) {
	size := ingestFull
	if o.tiny {
		size = ingestTiny
	}
	res := newResult()
	res.shards = ingestShards
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var reps, traced []ingestRep
	var gc gcDelta
	setups, err := timeSetups(func() (time.Duration, error) { return ingestSetup(o.out) })
	if err != nil {
		return nil, err
	}
	err = repLoop(o, 2, func(i int) error {
		dir, err := os.MkdirTemp(o.out, "ingest-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		// A traced run alternates untraced repetitions, the baseline the
		// tracing overhead is measured against, with traced ones, so that
		// both sides are the fastest of as many repetitions.
		var repTr *tracer
		if o.trace && i%2 == 1 {
			repTr = tr
			gc.begin()
		}
		r, err := runIngestOnce(size, o.seed, dir, repTr)
		if err != nil {
			return err
		}
		if repTr != nil {
			gc.end()
			traced = append(traced, r)
		} else {
			reps = append(reps, r)
		}
		checkIngest(res, i, r)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var lat, late, drains, cpus []float64
	for _, r := range reps {
		lat = append(lat, r.latMs...)
		late = append(late, r.lateMs...)
		setups = append(setups, r.setup.Seconds())
		drains = append(drains, r.drainWall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	// Field seconds of the backlog, which took burst/rate seconds to
	// accumulate. The steady phase's wall time is the generator's own
	// pacing, so sim_speed counts only the drain the gateway controls.
	backlogS := float64(size.burst) / size.rate
	res.samples["latency_mean_ms"] = len(lat)
	res.samples["latency_p99_ms"] = len(lat)
	res.samples["generator.late_p99_ms"] = len(late)
	if !o.trace {
		res.e2e["setup_s"] = median(setups)
		res.e2e["sim_speed"] = backlogS / fastest(drains)
		res.e2e["cpu_s"] = median(cpus)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.e2e["pdr"] = float64(reps[0].distinct) / float64(reps[0].unique)
		res.e2e["latency_mean_ms"] = mean(lat)
		res.e2e["latency_p99_ms"] = quantile(lat, 0.99)
		res.e2e["readings_per_s"] = float64(size.burst) / fastest(drains)
		res.e2e["success_rate"] = 1 - float64(res.failed)/float64(res.attempted)
		return res, nil
	}

	n := float64(len(traced))
	var tLate, rtts, tDrains, tCPUs []float64
	var pendingMax, inFlightMax, uploaded, batches, distinct, refused, commits float64
	for _, r := range traced {
		tLate = append(tLate, r.lateMs...)
		rtts = append(rtts, r.rttMs...)
		tDrains = append(tDrains, r.drainWall.Seconds())
		tCPUs = append(tCPUs, r.cpu.Seconds())
		pendingMax = math.Max(pendingMax, float64(r.pendingMax))
		inFlightMax = math.Max(inFlightMax, float64(r.inFlightMax))
		uploaded += float64(r.uploaded)
		batches += float64(r.batches)
		distinct += float64(r.distinct)
		refused += float64(r.refused + r.dupRefused)
		commits += float64(r.walCommits)
	}
	l := res.layer
	l["gateway.offer_calls"] = tr.count(kOffer) / n
	l["gateway.offer_s"] = tr.seconds(kOffer) / n
	l["gateway.offer_refused"] = refused / n
	l["gateway.pending_max"] = pendingMax
	l["gateway.uplink_calls"] = tr.count(kUplink) / n
	l["gateway.uplink_rtt_p50_ms"] = quantile(rtts, 0.5)
	l["gateway.uplink_in_flight_max"] = inFlightMax
	l["gateway.batch_readings_mean"] = uploaded / batches
	l["gateway.useful_upload_frac"] = distinct / uploaded
	l["gateway.wal_commits"] = commits / n
	l["backend.handle_s"] = tr.seconds(kBackend) / n
	l["generator.late_p99_ms"] = quantile(tLate, 0.99)
	l["generator.late_samples"] = float64(len(tLate))
	l["latency.samples"] = float64(len(lat))
	l["trace.sim_speed_ratio"] = fastest(drains) / fastest(tDrains)
	l["trace.cpu_ratio"] = median(tCPUs) / median(cpus)
	gc.report(l)
	path := filepath.Join(o.out, fmt.Sprintf("trace_ingest_seed%d.json", o.seed))
	if err := tr.write(path, map[string]any{"workload": "ingest", "seed": o.seed, "shards": ingestShards, "traced_reps": len(traced)}); err != nil {
		return nil, err
	}
	return res, nil
}
