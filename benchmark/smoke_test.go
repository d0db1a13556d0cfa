package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/traceview"
)

// manifest mirrors the keys of ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// small shrinks a workload to a few rounds on little data, keeping its
// engine, model, fleet size, codec and observers.
func small(w *workload) *workload {
	s := *w
	s.rounds, s.warmup, s.accFloor = 3, 1, 0
	s.train = max(w.clients*4, 320)
	s.test = 100
	s.batch = min(w.batch, 8)
	return &s
}

// Every workload end to end — untraced passes, traced passes, baselines and
// probes — with the output checked against BENCHMARK.json. Nothing here
// asserts on a duration.
func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, full := range workloads {
		w := small(full)
		t.Run(w.name+"/end_to_end", func(t *testing.T) {
			r := runEndToEnd(w, 1, time.Millisecond)
			checkResult(t, r, w, m.EndToEnd)
		})
		t.Run(w.name+"/per_layer", func(t *testing.T) {
			r := runPerLayer(w, 1, time.Millisecond)
			checkResult(t, r, w, m.PerLayer)
			spans, err := traceview.ReadSpans(bytes.NewReader(r.trace))
			if err != nil {
				t.Fatalf("trace does not parse: %v", err)
			}
			rounds := 0
			for _, s := range spans {
				if s.Name == "round" {
					rounds++
				}
			}
			if rounds != w.rounds {
				t.Errorf("trace has %d round spans, want %d", rounds, w.rounds)
			}
		})
	}
}

func checkResult(t *testing.T, r *result, w *workload, want []manifestMetric) {
	t.Helper()
	var out bytes.Buffer
	if err := r.print(&out, w); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Fatalf("result line lacks a key: %s", lines[len(lines)-1])
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(line.Metrics), len(want))
	}
	for _, mm := range want {
		got, ok := line.Metrics[mm.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", mm.Name)
		case got.Unit != mm.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", mm.Name, got.Unit, mm.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %v", mm.Name, got.Value)
		}
	}
}

// The --trace-out file is the existing trace JSONL schema.
func TestTraceOutParses(t *testing.T) {
	w := small(findWorkload("fleet-tcp-q8"))
	p := runPass(w, 2, passOpts{traced: true})
	if len(p.problems) > 0 {
		t.Fatal(p.problems)
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := os.WriteFile(path, p.traceJSONL, 0o644); err != nil {
		t.Fatal(err)
	}
	spans, err := traceview.ReadSpansFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, s := range spans {
		seen[s.Name]++
	}
	perRound := w.rounds * w.clients
	for name, want := range map[string]int{
		"session": 1, "setup": 1, "serve": 1, "eval": 1, "run_client": w.clients, "round": w.rounds,
		"assign_send": perRound, "client_busy": perRound, "wire_update": perRound,
		"deltareq_send": perRound, "client_delta": perRound, "wire_delta": perRound,
		"opt_step": perRound * w.localSteps,
	} {
		if seen[name] != want {
			t.Errorf("%d %s spans, want %d", seen[name], name, want)
		}
	}
}

// The passes of one seed are bit-identical, and another seed is not.
func TestPassesRepeatBitwise(t *testing.T) {
	w := small(findWorkload("device-pipe-1k"))
	a, b, c := runPass(w, 5, passOpts{}), runPass(w, 5, passOpts{traced: true}), runPass(w, 6, passOpts{})
	if a.paramHash != b.paramHash || !sameFloats(a.losses, b.losses) {
		t.Error("two passes of one seed differ")
	}
	if a.paramHash == c.paramHash {
		t.Error("two seeds gave the same model")
	}
	if a.upBytes != b.upBytes || a.downBytes != b.downBytes || a.upBytes == 0 {
		t.Errorf("wire bytes differ between passes: %d/%d vs %d/%d", a.upBytes, a.downBytes, b.upBytes, b.downBytes)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {144, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {1170, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianOfPasses(t *testing.T) {
	passes := []*passResult{{setupS: 0.9}, {setupS: 0.1}, {setupS: 0.3}}
	if got := medianOf(passes, func(p *passResult) float64 { return p.setupS }); got != 0.3 {
		t.Errorf("median of 3 passes = %v, want 0.3", got)
	}
	passes = append(passes, &passResult{setupS: 0.5})
	if got := medianOf(passes, func(p *passResult) float64 { return p.setupS }); got != 0.4 {
		t.Errorf("median of 4 passes = %v, want 0.4", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.75); got != 4 {
		t.Errorf("p75 of 1..5 = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// Self time is a span's duration minus the union of its direct children,
// clipped to the span: overlapping children count once, a child running past
// the parent's end counts only inside it, grandchildren not at all.
func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	span := func(id, parent string, start, end int64) traceview.Span {
		return traceview.Span{Span: id, Parent: parent, Name: id, StartNS: start, DurNS: end - start}
	}
	self := selfTimes([]traceview.Span{
		span("root", "", 0, 100),
		span("a", "root", 10, 30),
		span("b", "root", 20, 50), // overlaps a: union [10,50)
		span("c", "root", 60, 70),
		span("d", "root", 90, 120), // clipped to [90,100)
		span("a1", "a", 12, 18),
		span("orphan", "gone", 0, 5),
	})
	for id, want := range map[string]int64{"root": 40, "a": 14, "b": 30, "c": 10, "d": 30, "a1": 6, "orphan": 5} {
		if self[id] != want {
			t.Errorf("self time of %s = %d, want %d", id, self[id], want)
		}
	}
}
