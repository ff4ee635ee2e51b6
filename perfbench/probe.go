package main

import (
	"crypto/aes"
	"crypto/cipher"
	"runtime"
	"time"
)

// The host probe takes the host's speed out of the mesh workload's times.
//
// The benchmark runs on a shared VM whose speed drifts with its
// neighbours' load: over an hour the mesh workload ran anywhere between
// 3100 and 5200 simulated s/s, and ten runs of ten seeds spread its CPU
// time by a quarter of the median, all of it host, none of it program.
// Taking the fastest or the median repetition of a run does not remove a
// drift that lasts longer than the run. So after every repetition the
// benchmark spends a tenth of the repetition's wall time timing a fixed
// kernel of its own, and scales the run's wall and CPU times by
// probeRefS ÷ the run's median probe time. A scaled time is the time the
// work would have taken on a host on which the probe takes probeRefS:
// seconds at a fixed reference speed. One probe can differ from the next
// by a third with the host's sub-second jitter, which a repetition of a
// second or more averages out, so the scaling uses the run's median of
// many probes, not the probes next to each repetition.
//
// The kernel is the benchmark's own code, not the repository's, so a
// change to the program moves the scaled times and leaves the probe
// alone. It mixes what the simulators spend their time on (an event heap,
// map lookups and AES blocks) so that a host phase that slows one slows
// the other, and it allocates nothing, so the program's heap and GC
// settings do not reach it. The unscaled figures and the probe time are
// printed on the line before the result.
//
// Only the mesh workload is scaled. It runs on one core, as the probe
// does, and its raw times moved with the probe's: in ten-seed sweeps the
// scaling cut the spread of its times across runs by 40-60%. On city
// (two shards on two cores) and ingest (which waits on simulated round
// trips) the probe swung further than the workload and scaling did not
// narrow the spread, so they report their times as measured.

// probeRefS is the reference probe time: about what the probe takes on a
// 2-vCPU Intel Xeon VM (0.050-0.054 s over ten mesh runs).
const probeRefS = 0.050

// Work per probe. The state is built once per run and fits in the L2
// cache, so the probe adds a fixed few hundred KB to the resident set.
const (
	probeEvents = 8192    // live events in the heap
	probePops   = 180_000 // heap pop+push pairs
	probeKeys   = 4096    // map entries
	probeLookup = 300_000 // map lookups and updates
	probeBlocks = 150_000 // AES block encryptions
)

// probeShare is the share of each repetition's wall time spent probing
// after it.
const probeShare = 0.1

// hostProbe times the probe kernel.
type hostProbe struct {
	state   *probeState // built once, reused by every probe
	samples []probeSample
}

// probeSample is one probe's wall and CPU time.
type probeSample struct{ wall, cpu float64 }

// speed converts measured times to reference-speed times.
type speed struct{ wall, cpu float64 }

// newHostProbe returns a probe that has run once unrecorded, so that the
// first recorded run does not pay for a cold cache.
func newHostProbe() *hostProbe {
	p := &hostProbe{state: newProbeState(1)}
	p.take()
	p.samples = nil
	return p
}

// take runs the probe once, from a collected heap, and records it.
func (p *hostProbe) take() probeSample {
	runtime.GC()
	ph := startPhase()
	p.state.run()
	wall, cpu := ph.stop()
	probeSink += p.state.out
	ps := probeSample{wall.Seconds(), cpu.Seconds()}
	p.samples = append(p.samples, ps)
	return ps
}

// after probes the host for probeShare of a repetition that took d, and
// at least once.
func (p *hostProbe) after(d time.Duration) {
	for spent := 0.0; spent == 0 || spent < probeShare*d.Seconds(); {
		spent += p.take().wall
	}
}

// scale returns the factors that convert the run's measured times to
// reference-speed times.
func (p *hostProbe) scale() speed {
	var walls, cpus []float64
	for _, s := range p.samples {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
	}
	return speed{probeRefS / median(walls), probeRefS / median(cpus)}
}

// medianCPU returns the run's median probe CPU time.
func (p *hostProbe) medianCPU() float64 {
	var xs []float64
	for _, s := range p.samples {
		xs = append(xs, s.cpu)
	}
	return median(xs)
}

// probeSink keeps the kernel's result live.
var probeSink uint64

// probeEvent is an event-heap entry, ordered by (at, seq).
type probeEvent struct {
	at  int64
	seq uint32
}

// probeState is the kernel's input, built once.
type probeState struct {
	rng    uint64
	events []probeEvent
	table  map[uint32]uint64
	block  cipher.Block
	buf    [16]byte
	out    uint64
}

func newProbeState(seed uint64) *probeState {
	s := &probeState{rng: mix(seed), table: make(map[uint32]uint64, probeKeys)}
	for i := 0; i < probeEvents; i++ {
		s.push(probeEvent{int64(s.next() % 1e9), uint32(i)})
	}
	for k := uint32(0); k < probeKeys; k++ {
		s.table[k] = s.next()
	}
	s.block, _ = aes.NewCipher(make([]byte, 16)) // a 16-byte key cannot fail
	return s
}

func (s *probeState) next() uint64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return s.rng
}

// run is the timed kernel.
func (s *probeState) run() {
	var acc uint64
	for i := 0; i < probePops; i++ {
		e := s.pop()
		acc += uint64(e.at)
		e.at += int64(s.next() % 1e6)
		e.seq = uint32(i)
		s.push(e)
	}
	for i := 0; i < probeLookup; i++ {
		k := uint32(s.next() % probeKeys)
		v := s.table[k]
		s.table[k] = v + uint64(i)
		acc += v
	}
	for i := 0; i < probeBlocks; i++ {
		s.block.Encrypt(s.buf[:], s.buf[:])
	}
	s.out = acc + uint64(s.buf[0])
}

func (s *probeState) less(i, j int) bool {
	a, b := s.events[i], s.events[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (s *probeState) push(e probeEvent) {
	s.events = append(s.events, e)
	for i := len(s.events) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.less(i, up) {
			break
		}
		s.events[i], s.events[up] = s.events[up], s.events[i]
		i = up
	}
}

func (s *probeState) pop() probeEvent {
	top := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events = s.events[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < last && s.less(l, m) {
			m = l
		}
		if l+1 < last && s.less(l+1, m) {
			m = l + 1
		}
		if m == i {
			break
		}
		s.events[i], s.events[m] = s.events[m], s.events[i]
		i = m
	}
	return top
}
