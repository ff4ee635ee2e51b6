package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/citysim"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/loramesher"
)

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tiny(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 3, seconds: 0, trace: traced, out: t.TempDir(), tiny: true}
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, and the same metric names and units in both lists.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	check := func(list string, json []struct{ Name, Unit string }, prog []spec) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", list, len(json), len(prog))
			return
		}
		for i := range prog {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], program %s [%s]",
					list, i, json[i].Name, json[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestTinyRunsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks the printed result: correct, at least one
// attempt, and exactly the metric set BENCHMARK.json names.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.Name, traced
			name := w + "/untraced"
			want := s.EndToEnd
			if traced {
				name, want = w+"/traced", s.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				o := tiny(t, w, traced)
				res, err := workloads[w](o)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.print(&buf, o); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var out resultOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", out.Correct, out.Attempted, out.Failed, res.problems)
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestMeshChecksRejectWrongOutput feeds a finished mesh a delivery that
// does not match what its origin sent, a frame with a bad MIC, and a
// repetition whose outcome differs; each must fail a check.
func TestMeshChecksRejectWrongOutput(t *testing.T) {
	newRun := func(t *testing.T) (*meshHost, meshOutcome) {
		h, err := newMeshHost(meshTiny, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.run()
		res := newResult()
		oc := h.check(res, 0, nil)
		if !res.correct() {
			t.Fatalf("untouched run fails its checks: %v", res.problems)
		}
		return h, oc
	}

	t.Run("payload", func(t *testing.T) {
		h, _ := newRun(t)
		sink := h.nodes[h.sink]
		p := h.telemetry(h.nodes[(h.sink+1)%len(h.nodes)].addr, 0)
		p[len(p)-1] ^= 0xFF
		sink.Deliver(loramesher.Message{From: h.nodes[(h.sink+1)%len(h.nodes)].addr, Payload: p, At: h.sched.Now()})
		res := newResult()
		h.check(res, 0, nil)
		if res.correct() {
			t.Error("a corrupted payload passed the checks")
		}
	})
	t.Run("mic", func(t *testing.T) {
		h, _ := newRun(t)
		h.nodes[h.sink].node.HandleFrame(forgedFrame(t, h), loramesher.RxInfo{})
		res := newResult()
		h.check(res, 0, nil)
		if res.correct() {
			t.Error("a MIC failure passed the checks")
		}
	})
	t.Run("repeat", func(t *testing.T) {
		h, oc := newRun(t)
		oc.delivered++
		res := newResult()
		h.check(res, 0, &oc)
		if res.correct() {
			t.Error("a repetition with another delivered count passed the checks")
		}
	})
}

// TestReplayRejectsBadFrames feeds the traced run's frame replay a frame
// sealed under the mesh key beside a truncated copy and a copy with a
// flipped MIC byte; each bad copy must count as a failed frame.
func TestReplayRejectsBadFrames(t *testing.T) {
	h, err := newMeshHost(meshTiny, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := sealedFrame(t, h, h.key)
	if _, _, bad := replayFrames([][]byte{good}, h.key); bad != 0 {
		t.Fatalf("a frame sealed under the mesh key failed replay")
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x01
	for name, f := range map[string][]byte{"truncated": good[:len(good)-3], "mic": flipped} {
		if _, _, bad := replayFrames([][]byte{good, f}, h.key); bad != 1 {
			t.Errorf("%s: %d frames failed replay, want 1", name, bad)
		}
	}
}

// forgedFrame returns a datagram to the sink from another node, sealed
// under a key the mesh does not hold: it must fail the MIC.
func forgedFrame(t *testing.T, h *meshHost) []byte {
	t.Helper()
	var key meshsec.Key
	key[0] = 0x5a
	return sealedFrame(t, h, key)
}

// sealedFrame returns a datagram to the sink from another node, sealed
// under key.
func sealedFrame(t *testing.T, h *meshHost, key meshsec.Key) []byte {
	t.Helper()
	src := h.nodes[(h.sink+1)%len(h.nodes)].addr
	sink := h.nodes[h.sink].addr
	p := &packet.Packet{
		Dst: sink, Src: src, Via: sink, Type: packet.TypeData,
		Payload: h.telemetry(src, 0),
		Secured: true, SecFlags: packet.SecFlagEncrypted, Counter: 1 << 30,
	}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := meshsec.NewLink(key, src).SealFrame(frame, p); err != nil {
		t.Fatal(err)
	}
	return frame
}

func TestCityCheckRejectsDigestMismatch(t *testing.T) {
	r, err := runCityOnce(citysim.Config{Nodes: cityTiny.nodes, Seed: 5, Shards: 2}, cityTiny.horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	checkCity(res, 1, r, r)
	if !res.correct() {
		t.Fatalf("identical repetition fails: %v", res.problems)
	}
	wrong := r
	wrong.digest ^= 1
	checkCity(res, 1, wrong, r)
	if res.correct() {
		t.Error("a differing digest passed the checks")
	}
}

func TestIngestCheckRejectsLedgerViolations(t *testing.T) {
	r, err := runIngestOnce(ingestTiny, 5, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	checkIngest(res, 0, r)
	if !res.correct() {
		t.Fatalf("untouched run fails: %v", res.problems)
	}
	for name, mutate := range map[string]func(*ingestRep){
		"lost":    func(r *ingestRep) { r.distinct--; r.lost++ },
		"double":  func(r *ingestRep) { r.double++ },
		"refused": func(r *ingestRep) { r.refused++ },
	} {
		wrong := r
		mutate(&wrong)
		res := newResult()
		checkIngest(res, 0, wrong)
		if res.correct() {
			t.Errorf("%s: ledger violation passed the checks", name)
		}
	}
}

func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "mesh", "-trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want failure and no result", args, code, out.String())
		}
	}
}

// TestHostProbe pins the probe scaling: a host on which the probe takes
// twice the reference time halves the times, a repetition is followed by
// at least one probe, and the timed kernel allocates nothing, so the
// program's heap cannot reach it.
func TestHostProbe(t *testing.T) {
	slow := &hostProbe{samples: []probeSample{{2 * probeRefS, 2 * probeRefS}, {2 * probeRefS, 2 * probeRefS}}}
	if s := slow.scale(); s != (speed{0.5, 0.5}) {
		t.Errorf("probe at twice the reference time scales by %+v, want 0.5", s)
	}
	p := newHostProbe()
	if len(p.samples) != 0 {
		t.Errorf("new probe kept its warm-up run")
	}
	p.after(0)
	if len(p.samples) != 1 || p.samples[0].wall <= 0 || p.samples[0].cpu <= 0 {
		t.Errorf("after a repetition: samples %+v, want one", p.samples)
	}
	st := newProbeState(1)
	if a := testing.AllocsPerRun(2, st.run); a != 0 {
		t.Errorf("probe kernel allocates %v times per run", a)
	}
}
