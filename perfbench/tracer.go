package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a layer boundary the benchmark wraps.
type spanKind uint8

const (
	kStep spanKind = iota
	kHandleFrame
	kHandleTxDone
	kTimer
	kSend
	kTransmit
	kBusy
	kGenerate
	kCityNew
	kCityRun
	kOffer
	kUplink
	kBackend
	numKinds
)

var kindNames = [numKinds]string{
	kStep:         "simtime.step",
	kHandleFrame:  "core.handle_frame",
	kHandleTxDone: "core.handle_txdone",
	kTimer:        "core.timer",
	kSend:         "core.send",
	kTransmit:     "airmedium.transmit",
	kBusy:         "airmedium.busy",
	kGenerate:     "bench.generate",
	kCityNew:      "citysim.new",
	kCityRun:      "citysim.run",
	kOffer:        "gateway.offer",
	kUplink:       "gateway.uplink",
	kBackend:      "backend.handle",
}

// spanRec is one finished span; times are nanoseconds since the
// tracer's epoch.
type spanRec struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

// maxSpans bounds the spans kept for the trace file; the aggregates below
// count every span regardless.
const maxSpans = 50_000

// tracer keeps spans in memory and aggregates calls, total and self time
// per kind. It is safe for concurrent use; the ingest workload records
// from the generator, uplink and backend goroutines at once.
type tracer struct {
	epoch time.Time

	nextID atomic.Uint64

	mu      sync.Mutex
	calls   [numKinds]int64
	totalNs [numKinds]int64
	selfNs  [numKinds]int64
	recs    []spanRec
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID returns a fresh span id.
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record stores a finished span. self is its duration minus the time its
// child spans cover.
func (t *tracer) record(id, parent uint64, k spanKind, start, end, self int64) {
	t.mu.Lock()
	t.calls[k]++
	t.totalNs[k] += end - start
	t.selfNs[k] += self
	if len(t.recs) < maxSpans {
		t.recs = append(t.recs, spanRec{id: id, parent: parent, kind: k, start: start, end: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// flat records a span with no parent and no children that started at
// start and ends now.
func (t *tracer) flat(k spanKind, start int64) {
	end := t.now()
	t.record(t.newID(), 0, k, start, end, end-start)
}

func (t *tracer) seconds(k spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.totalNs[k]) / 1e9
}

func (t *tracer) count(k spanKind) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(t.calls[k])
}

// spanStack nests the spans one goroutine records: a span's parent is
// the span open below it, and the parent's self time excludes it.
type spanStack struct {
	tr     *tracer
	frames []frame
}

type frame struct {
	id, parent uint64
	kind       spanKind
	start      int64
	childNs    int64
}

func (s *spanStack) begin(k spanKind) {
	var parent uint64
	if n := len(s.frames); n > 0 {
		parent = s.frames[n-1].id
	}
	s.frames = append(s.frames, frame{id: s.tr.newID(), parent: parent, kind: k, start: s.tr.now()})
}

// end closes the innermost span and returns its duration and self time.
func (s *spanStack) end() (dur, self int64) {
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	end := s.tr.now()
	dur = end - f.start
	self = dur - f.childNs
	s.tr.record(f.id, f.parent, f.kind, f.start, end, self)
	if n := len(s.frames); n > 0 {
		s.frames[n-1].childNs += dur
	}
	return dur, self
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]uint64 `json:"args"`
}

// write saves the kept spans as a Chrome trace (chrome://tracing,
// Perfetto) with the per-kind aggregates under otherData.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	agg := map[string]any{}
	for k := spanKind(0); k < numKinds; k++ {
		if t.calls[k] == 0 {
			continue
		}
		agg[kindNames[k]] = map[string]any{
			"calls":   t.calls[k],
			"total_s": float64(t.totalNs[k]) / 1e9,
			"self_s":  float64(t.selfNs[k]) / 1e9,
		}
	}
	meta["spans"] = agg
	meta["spans_dropped"] = t.dropped
	head, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"otherData\":%s,\"traceEvents\":[\n", head)
	enc := json.NewEncoder(w)
	for i, r := range t.recs {
		if i > 0 {
			w.WriteString(",")
		}
		// Nested spans share one track so viewers draw them as a tree;
		// flat spans, recorded from several goroutines, get a track per
		// kind.
		tid := 1
		if r.parent == 0 && r.kind != kStep {
			tid = int(r.kind) + 1
		}
		if err := enc.Encode(chromeEvent{
			Name: kindNames[r.kind], Ph: "X",
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]uint64{"id": r.id, "parent": r.parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
