package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/airmedium"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/loramesher"
)

// meshSize is the mesh workload's fixed unit of work. The full size is
// the paper's system at a field-deployment scale: ~100 secured nodes on
// one channel sending many-to-one telemetry, with a few bulk transfers
// beside it.
type meshSize struct {
	nodes int
	// warmup lets the distance-vector tables converge before traffic;
	// traffic is the telemetry window that follows.
	warmup, traffic time.Duration
	// interval is each node's mean Poisson telemetry gap.
	interval time.Duration
	// streams reliable transfers of streamBytes each start during the
	// traffic window.
	streams, streamBytes int
	// instances is how many topologies, derived from the seed, one run
	// cycles through. Pooling them keeps the figures of one seed close
	// to those of another; the simulation speed of a single 100-node
	// field varies by ±12% from one draw to the next.
	instances int
}

// The telemetry (24 bytes, Poisson, mean 5 min) is the traffic of the
// repository's A4, X1 and X2 experiments; 1 KB is one of E6's reliable
// payload sizes.
var (
	meshFull = meshSize{nodes: 100, warmup: 20 * time.Minute, traffic: 40 * time.Minute,
		interval: 5 * time.Minute, streams: 4, streamBytes: 1024, instances: 12}
	meshTiny = meshSize{nodes: 12, warmup: 10 * time.Minute, traffic: 10 * time.Minute,
		interval: 2 * time.Minute, streams: 1, streamBytes: 300, instances: 2}
)

const (
	meshPayload = 24 // bytes per telemetry reading
	// meshLinkRange is the connectivity radius the random field must
	// satisfy; the default PHY closes links to ~13.6 km without
	// shadowing, so every edge of the check is a working link.
	meshLinkRange = 12000.0
	// meshMaxFrames bounds the frames a traced run keeps for the codec
	// and MIC replay.
	meshMaxFrames = 20000
	// meshFreqHz is the EU868 g3 sub-band channel (10% duty cycle) that
	// EU Meshtastic meshes use. On the g1 default (1%), 100 nodes spend
	// most of their hourly budget on 2-minute HELLOs of ~100-entry tables
	// and relays near the sink stall for minutes, which makes the
	// workload's latency a function of which relay ran dry.
	meshFreqHz = 869.525e6
)

var simEpoch = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

// stepKind classifies a scheduler step by whose callback it ran.
type stepKind uint8

const (
	stepMedium   stepKind = iota // airmedium's end-of-airtime evaluation
	stepTimer                    // a timer a node scheduled through its Env
	stepGenerate                 // the benchmark's traffic generator
)

// meshHost is the benchmark's own core.Env host: one scheduler, one
// indexed medium, and a node per station, wired the way a downstream
// user of the library would write it.
type meshHost struct {
	size  meshSize
	seed  int64
	sched *simtime.Scheduler
	med   *airmedium.Medium
	phy   loraphy.Params
	key   meshsec.Key
	nodes []*meshNode
	sink  int

	// Traffic ledger.
	offered, sendErr int
	delivered        int
	corrupt          int
	sentAt           map[uint64]time.Time
	seen             map[uint64]bool
	latMs            []float64
	streamSrc        []int
	streamErr        int
	streamDelivered  int

	// Tracing; nil stack when the run is untraced.
	st                *spanStack
	kind              stepKind
	timerSelfNs       int64
	evalSelfNs        int64
	frames            [][]byte
	frameBytes, txCnt int64
}

type meshNode struct {
	h       *meshHost
	idx     int
	addr    packet.Address
	node    *loramesher.Node
	station airmedium.StationID
	rng     *rand.Rand
}

var (
	_ core.Env             = (*meshNode)(nil)
	_ core.TimerEnv        = (*meshNode)(nil)
	_ airmedium.Receiver   = (*meshNode)(nil)
	_ airmedium.TxObserver = (*meshNode)(nil)
)

// mix is splitmix64: every derived input is a pure function of the seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newMeshHost builds and starts the mesh: topology, medium, keys, nodes.
// A non-nil tr traces the run.
func newMeshHost(size meshSize, seed int64, tr *tracer) (*meshHost, error) {
	side := meshLinkRange * math.Sqrt(float64(size.nodes)/4)
	topo, err := geo.ConnectedRandomGeometric(size.nodes, side, side, meshLinkRange, seed, 1000)
	if err != nil {
		return nil, err
	}
	phy := loramesher.DefaultPHY()
	phy.FrequencyHz = meshFreqHz
	maxRange, err := loraphy.MaxRangeMeters(phy, loraphy.DefaultLinkBudget(), loraphy.DefaultLogDistance(), 1e6)
	if err != nil {
		return nil, err
	}
	sched := simtime.NewScheduler(simEpoch)
	med, err := airmedium.New(sched, airmedium.Config{Seed: seed, MaxRangeMeters: maxRange})
	if err != nil {
		return nil, err
	}
	h := &meshHost{
		size: size, seed: seed, sched: sched, med: med, phy: phy,
		sentAt: map[uint64]time.Time{}, seen: map[uint64]bool{},
	}
	binary.LittleEndian.PutUint64(h.key[:8], mix(uint64(seed)))
	binary.LittleEndian.PutUint64(h.key[8:], mix(uint64(seed)+1))
	if tr != nil {
		h.st = &spanStack{tr: tr}
	}
	// The sink is the node nearest the field centre.
	best := math.MaxFloat64
	for i, p := range topo.Positions {
		if d := math.Hypot(p.X-side/2, p.Y-side/2); d < best {
			best, h.sink = d, i
		}
	}
	hops, err := geo.HopDistances(topo, meshLinkRange, h.sink)
	if err != nil {
		return nil, err
	}
	for i, pos := range topo.Positions {
		n := &meshNode{h: h, idx: i, addr: packet.Address(i + 1),
			rng: rand.New(rand.NewSource(int64(mix(uint64(seed) ^ uint64(i+1)<<32))))}
		cfg := loramesher.Config{
			Address:     n.addr,
			Phy:         phy,
			HelloPeriod: 2 * time.Minute,
			Routing:     routing.Config{EntryTTL: 10 * time.Minute},
			Security:    meshsec.NewLink(h.key, n.addr),
			CAD:         true,
			// Stop-and-wait bulk chunks need a clean end-to-end round
			// trip across busy hops; with the default 6 retry rounds
			// some transfers on these fields give up.
			StreamMaxRetries: 12,
		}
		if i == h.sink {
			cfg.Role = loramesher.RoleSink
		}
		if n.node, err = loramesher.NewNode(cfg, n); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		if n.station, err = med.AddStation(pos, n); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		h.nodes = append(h.nodes, n)
	}
	// Start only once every station exists, so first beacons reach all
	// neighbours.
	for i, n := range h.nodes {
		if err := n.node.Start(); err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
	}
	h.scheduleTraffic(hops)
	return h, nil
}

// Now implements core.Env.
func (n *meshNode) Now() time.Time { return n.h.sched.Now() }

// Schedule implements core.Env.
func (n *meshNode) Schedule(d time.Duration, fn func()) func() {
	hd := n.h.sched.MustAfter(d, n.h.traced(stepTimer, kTimer, fn))
	return func() { n.h.sched.Cancel(hd) }
}

// NewTimer implements core.TimerEnv with a timer that re-arms without
// allocating, as a production host would.
func (n *meshNode) NewTimer(fn func()) core.Timer {
	t := &meshTimer{sched: n.h.sched}
	fire := n.h.traced(stepTimer, kTimer, fn)
	t.fire = func() {
		t.armed = false
		fire()
	}
	return t
}

type meshTimer struct {
	sched *simtime.Scheduler
	fire  func()
	hd    simtime.Handle
	armed bool
}

func (t *meshTimer) Reset(d time.Duration) {
	if t.armed {
		t.sched.Cancel(t.hd)
	}
	t.armed = true
	t.hd = t.sched.MustAfter(d, t.fire)
}

func (t *meshTimer) Stop() {
	if t.armed {
		t.sched.Cancel(t.hd)
		t.armed = false
	}
}

// traced wraps fn, a callback the scheduler will run, in a span of kind
// sk and marks the step it runs in as kind. Untraced runs get fn itself.
func (h *meshHost) traced(kind stepKind, sk spanKind, fn func()) func() {
	if h.st == nil {
		return fn
	}
	return func() {
		h.kind = kind
		h.st.begin(sk)
		fn()
		h.st.end()
	}
}

// span runs fn inside a span of kind sk when traced.
func (h *meshHost) span(sk spanKind, fn func()) {
	if h.st == nil {
		fn()
		return
	}
	h.st.begin(sk)
	fn()
	h.st.end()
}

// Transmit implements core.Env.
func (n *meshNode) Transmit(frame []byte) (time.Duration, error) {
	h := n.h
	if h.st == nil {
		return h.med.Transmit(n.station, frame, h.phy)
	}
	h.txCnt++
	h.frameBytes += int64(len(frame))
	if len(h.frames) < meshMaxFrames {
		h.frames = append(h.frames, append([]byte(nil), frame...))
	}
	var d time.Duration
	var err error
	h.span(kTransmit, func() { d, err = h.med.Transmit(n.station, frame, h.phy) })
	return d, err
}

// ChannelBusy implements core.Env.
func (n *meshNode) ChannelBusy() (bool, error) {
	var busy bool
	var err error
	n.h.span(kBusy, func() { busy, err = n.h.med.Busy(n.station, n.h.phy.FrequencyHz) })
	return busy, err
}

// Rand implements core.Env.
func (n *meshNode) Rand() float64 { return n.rng.Float64() }

// OnFrame implements airmedium.Receiver.
func (n *meshNode) OnFrame(d airmedium.Delivery) {
	info := core.RxInfo{RSSIDBm: d.RSSIDBm, SNRDB: d.SNRDB}
	n.h.span(kHandleFrame, func() { n.node.HandleFrame(d.Data, info) })
}

// OnTxDone implements airmedium.TxObserver.
func (n *meshNode) OnTxDone(time.Time) { n.h.span(kHandleTxDone, n.node.HandleTxDone) }

// readingKey identifies one telemetry reading.
func readingKey(origin packet.Address, seq uint32) uint64 {
	return uint64(origin)<<32 | uint64(seq)
}

// telemetry returns the payload origin sends as reading seq: the
// sequence number, the origin, and seeded filler.
func (h *meshHost) telemetry(origin packet.Address, seq uint32) []byte {
	p := make([]byte, meshPayload)
	binary.BigEndian.PutUint32(p[0:4], seq)
	binary.BigEndian.PutUint16(p[4:6], uint16(origin))
	for i := 6; i < meshPayload; i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(uint64(h.seed)^readingKey(origin, seq)<<8^uint64(i)))
		copy(p[i:], w[:])
	}
	return p
}

// bulk returns the reliable payload origin sends.
func (h *meshHost) bulk(origin packet.Address) []byte {
	p := make([]byte, h.size.streamBytes)
	for i := range p {
		p[i] = byte(mix(uint64(h.seed) ^ uint64(origin)<<20 ^ uint64(i)))
	}
	return p
}

// Deliver implements core.Env: every delivery must match what its origin
// sent.
func (n *meshNode) Deliver(msg loramesher.Message) {
	h := n.h
	if msg.Reliable {
		if n.idx != h.sink || !bytes.Equal(msg.Payload, h.bulk(msg.From)) {
			h.corrupt++
			return
		}
		h.streamDelivered++
		return
	}
	if n.idx != h.sink || len(msg.Payload) != meshPayload {
		h.corrupt++
		return
	}
	seq := binary.BigEndian.Uint32(msg.Payload[0:4])
	k := readingKey(msg.From, seq)
	at, ok := h.sentAt[k]
	if !ok || !bytes.Equal(msg.Payload, h.telemetry(msg.From, seq)) {
		h.corrupt++
		return
	}
	if h.seen[k] {
		return // a second copy over another path is not a new reading
	}
	h.seen[k] = true
	h.delivered++
	h.latMs = append(h.latMs, float64(msg.At.Sub(at))/float64(time.Millisecond))
}

// StreamDone implements core.Env.
func (n *meshNode) StreamDone(ev loramesher.StreamEvent) {
	if ev.Err != nil {
		n.h.streamErr++
	}
}

// scheduleTraffic arms the Poisson telemetry of every non-sink node and
// the reliable transfers, all inside the traffic window. hops is each
// node's hop distance from the sink.
func (h *meshHost) scheduleTraffic(hops []int) {
	rng := rand.New(rand.NewSource(int64(mix(uint64(h.seed) ^ 0x7e1e))))
	start := simEpoch.Add(h.size.warmup)
	end := start.Add(h.size.traffic)
	sinkAddr := h.nodes[h.sink].addr
	for _, n := range h.nodes {
		if n.idx == h.sink {
			continue
		}
		n := n
		var seq uint32
		at := start
		for {
			gap := time.Duration(float64(h.size.interval) * -math.Log(1-rng.Float64()))
			if at = at.Add(gap); !at.Before(end) {
				break
			}
			s := seq
			seq++
			h.sched.At(at, h.traced(stepGenerate, kGenerate, func() { h.send(n, sinkAddr, s) })) //nolint:errcheck // at is in the future
		}
	}
	// Reliable transfers from distinct nodes two or three hops out,
	// spread over the first half of the window so each can finish
	// inside it. Stop-and-wait chunks from farther out need a clean round
	// trip over 5+ busy hops and exhaust their retries on some fields.
	var cands []int
	for i, d := range hops {
		if d == 2 || d == 3 {
			cands = append(cands, i)
		}
	}
	for len(h.streamSrc) < h.size.streams && len(h.streamSrc) < len(cands) {
		i := cands[rng.Intn(len(cands))]
		if slices.Contains(h.streamSrc, i) {
			continue
		}
		h.streamSrc = append(h.streamSrc, i)
		at := start.Add(time.Duration(rng.Float64() * float64(h.size.traffic/2)))
		n := h.nodes[i]
		h.sched.At(at, h.traced(stepGenerate, kGenerate, func() { h.sendReliable(n, sinkAddr) })) //nolint:errcheck // at is in the future
	}
}

func (h *meshHost) send(n *meshNode, dst packet.Address, seq uint32) {
	payload := h.telemetry(n.addr, seq)
	h.offered++
	var err error
	h.span(kSend, func() { err = n.node.Send(dst, payload) })
	if err != nil {
		h.sendErr++
		return
	}
	h.sentAt[readingKey(n.addr, seq)] = h.sched.Now()
}

func (h *meshHost) sendReliable(n *meshNode, dst packet.Address) {
	payload := h.bulk(n.addr)
	var err error
	h.span(kSend, func() { _, err = n.node.SendReliable(dst, payload) })
	if err != nil {
		h.sendErr++
	}
}

// run simulates warmup + traffic, with a span per scheduler step when
// traced.
func (h *meshHost) run() {
	end := simEpoch.Add(h.size.warmup + h.size.traffic)
	if h.st == nil {
		h.sched.RunUntil(end)
		return
	}
	for {
		next, ok := h.sched.NextAt()
		if !ok || next.After(end) {
			break
		}
		h.kind = stepMedium
		h.st.begin(kStep)
		h.sched.Step()
		_, self := h.st.end()
		switch h.kind {
		case stepTimer:
			h.timerSelfNs += self
		case stepMedium:
			h.evalSelfNs += self
		}
	}
	h.sched.RunUntil(end)
}

// micFailures sums the nodes' MIC rejections. Replay-window drops are
// not failures here: in an attack-free run they are copies of a frame a
// node has already taken, brought back by a transient routing loop (on
// the seventh topology of seed 304 a DATA frame went 67→44→16→44 while
// node 16's route to the sink still pointed through 44), and dropping
// them is the window's job.
func (h *meshHost) micFailures() uint64 {
	var n uint64
	for _, m := range h.nodes {
		n += m.node.Metrics().Counter("sec.drop.auth").Value()
	}
	return n
}

// meshOutcome is what must repeat exactly across repetitions of one
// instance, traced or not.
type meshOutcome struct {
	offered, delivered, streams int
	fired                       uint64
}

// check applies the mesh output checks to a finished repetition of
// instance inst and returns its outcome. first is the instance's first
// outcome, nil on its first repetition.
func (h *meshHost) check(res *result, inst int, first *meshOutcome) meshOutcome {
	oc := meshOutcome{offered: h.offered, delivered: h.delivered, streams: h.streamDelivered, fired: h.sched.Fired()}
	if first != nil {
		res.check(oc == *first, "instance %d: outcome %+v differs from its first repetition %+v", inst, oc, *first)
	}
	res.check(h.corrupt == 0, "instance %d: %d deliveries did not match what their origin sent", inst, h.corrupt)
	mic := h.micFailures()
	res.check(mic == 0, "instance %d: %d MIC failures in an attack-free run", inst, mic)
	res.check(h.delivered > 0, "instance %d: no telemetry delivered", inst)
	res.attempted += int64(h.offered + len(h.streamSrc))
	res.failed += int64(h.sendErr + h.streamErr + h.corrupt)
	return oc
}

// meshInstance accumulates the repetitions of one topology.
type meshInstance struct {
	outcome            *meshOutcome
	walls, cpus        []float64 // untraced repetitions
	tracedW, tracedCPU []float64
}

// meshLayers accumulates the traced repetitions' per-layer figures.
type meshLayers struct {
	reps                           int
	timerSelf, evalSelf            float64
	transmits, frameBytes          float64
	tableMean, rebuilds, delivered float64
	last                           *meshHost
}

func (l *meshLayers) add(h *meshHost) {
	l.reps++
	l.timerSelf += float64(h.timerSelfNs) / 1e9
	l.evalSelf += float64(h.evalSelfNs) / 1e9
	l.transmits += float64(h.txCnt)
	l.frameBytes += float64(h.frameBytes)
	entries := 0
	for _, n := range h.nodes {
		entries += n.node.Table().Len()
	}
	l.tableMean += float64(entries) / float64(len(h.nodes))
	st := h.med.Stats()
	// Receivers out of range or asleep never had the frame to lose;
	// the fraction is over the receptions that could have succeeded.
	lost := st.LostCollision + st.LostHalfDuplex + st.LostRandom
	l.delivered += float64(st.FramesDelivered) / float64(st.FramesDelivered+lost)
	l.rebuilds += float64(st.NeighborhoodRebuilds)
	l.last = h
}

func runMesh(o options) (*result, error) {
	size := meshFull
	if o.tiny {
		size = meshTiny
	}
	res := newResult()
	res.shards = 1
	simS := (size.warmup + size.traffic).Seconds()
	k := size.instances
	insts := make([]meshInstance, k)
	var setups, lat []float64
	var offered, delivered int
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var layers meshLayers
	var gc gcDelta

	probe := newHostProbe()
	err := repLoop(o, 2*k, func(i int) error {
		in := &insts[i%k]
		// A traced run alternates untraced passes over the instances,
		// the baseline the tracing overhead is measured against, with
		// traced passes, which must reproduce the first pass's outcomes.
		// Both sides then take their median of as many repetitions.
		var repTr *tracer
		if o.trace && (i/k)%2 == 1 {
			repTr = tr
		}
		t0 := time.Now()
		defer func() { probe.after(time.Since(t0)) }()
		h, err := newMeshHost(size, int64(mix(uint64(o.seed)^uint64(i%k)<<40)), repTr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if repTr != nil {
			gc.begin()
		}
		ph := startPhase()
		h.run()
		wall, cpu := ph.stop()
		if repTr != nil {
			gc.end()
		}

		oc := h.check(res, i%k, in.outcome)
		if in.outcome == nil {
			in.outcome = &oc
			offered += h.offered
			delivered += h.delivered
			lat = append(lat, h.latMs...)
		}

		if repTr == nil {
			in.walls = append(in.walls, wall.Seconds())
			in.cpus = append(in.cpus, cpu.Seconds())
			return nil
		}
		in.tracedW = append(in.tracedW, wall.Seconds())
		in.tracedCPU = append(in.tracedCPU, cpu.Seconds())
		layers.add(h)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Each instance contributes its median repetition; summing over the
	// instances weighs every topology equally.
	var wall, cpu, tWall, tCPU float64
	for _, in := range insts {
		wall += median(in.walls)
		cpu += median(in.cpus)
		tWall += median(in.tracedW)
		tCPU += median(in.tracedCPU)
	}
	sc := probe.scale()
	res.probeS = probe.medianCPU()
	res.samples["latency_mean_ms"] = len(lat)
	res.samples["latency_p99_ms"] = len(lat)
	if !o.trace {
		res.e2e["setup_s"] = median(setups)
		res.e2e["sim_speed"] = float64(k) * simS / (wall * sc.wall)
		res.e2e["cpu_s"] = cpu * sc.cpu / float64(k)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.e2e["pdr"] = float64(delivered) / float64(offered)
		res.e2e["latency_mean_ms"] = mean(lat)
		res.e2e["latency_p99_ms"] = quantile(lat, 0.99)
		res.e2e["readings_per_s"] = float64(delivered) / (wall * sc.wall)
		res.e2e["success_rate"] = 1 - float64(res.failed)/float64(res.attempted)
		res.unscaled["sim_speed"] = float64(k) * simS / wall
		res.unscaled["cpu_s"] = cpu / float64(k)
		res.unscaled["readings_per_s"] = float64(delivered) / wall
		return res, nil
	}

	n := float64(layers.reps)
	l := res.layer
	l["simtime.steps"] = tr.count(kStep) / n
	l["simtime.step_s"] = tr.seconds(kStep) / n
	l["simtime.self_s"] = layers.timerSelf / n
	for _, sk := range []spanKind{kHandleFrame, kHandleTxDone, kTimer, kSend} {
		l[kindNames[sk]+".calls"] = tr.count(sk) / n
		l[kindNames[sk]+".s"] = tr.seconds(sk) / n
	}
	l["routing.table_entries_mean"] = layers.tableMean / n
	l["airmedium.transmit.calls"] = tr.count(kTransmit) / n
	l["airmedium.transmit.s"] = tr.seconds(kTransmit) / n
	l["airmedium.busy.calls"] = tr.count(kBusy) / n
	l["airmedium.busy.s"] = tr.seconds(kBusy) / n
	l["airmedium.eval_self_s"] = layers.evalSelf / n
	l["airmedium.delivered_frac"] = layers.delivered / n
	l["airmedium.neighborhood_rebuilds"] = layers.rebuilds / n
	l["packet.frame_bytes_mean"] = layers.frameBytes / layers.transmits
	unmarshalNs, verifyNs, bad := replayFrames(layers.last.frames, layers.last.key)
	res.check(bad == 0, "%d captured frames failed to parse or verify", bad)
	l["packet.unmarshal_ns"] = unmarshalNs
	l["meshsec.verify_ns"] = verifyNs
	l["latency.samples"] = float64(len(lat))
	l["trace.sim_speed_ratio"] = wall / tWall
	l["trace.cpu_ratio"] = tCPU / cpu
	gc.report(l)
	path := filepath.Join(o.out, fmt.Sprintf("trace_mesh_seed%d.json", o.seed))
	if err := tr.write(path, map[string]any{"workload": "mesh", "seed": o.seed, "traced_reps": layers.reps}); err != nil {
		return nil, err
	}
	return res, nil
}

// replayFrames times packet.Unmarshal and meshsec.Link.VerifyOnly over
// the captured frames, returning nanoseconds per frame for each and how
// many frames failed either step. The frames are replayed enough times to
// cover at least 50 ms.
func replayFrames(frames [][]byte, key meshsec.Key) (unmarshalNs, verifyNs float64, bad int) {
	if len(frames) == 0 {
		return 0, 0, 0
	}
	link := meshsec.NewLink(key, packet.Address(0xFFFE))
	pkts := make([]*packet.Packet, len(frames))
	for i, f := range frames {
		p, err := packet.Unmarshal(f)
		if err != nil {
			bad++
			continue
		}
		if _, ok := link.VerifyOnly(p); !ok {
			bad++
		}
		pkts[i] = p
	}
	var uTotal, vTotal time.Duration
	var passes int
	for uTotal+vTotal < 50*time.Millisecond {
		t0 := time.Now()
		for _, f := range frames {
			packet.Unmarshal(f) //nolint:errcheck // parse failures were counted above
		}
		t1 := time.Now()
		for _, p := range pkts {
			if p != nil {
				link.VerifyOnly(p)
			}
		}
		uTotal += t1.Sub(t0)
		vTotal += time.Since(t1)
		passes++
	}
	per := float64(passes * len(frames))
	return float64(uTotal) / per, float64(vTotal) / per, bad
}
