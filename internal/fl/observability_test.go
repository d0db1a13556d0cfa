package fl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// These tests pin the simulation side of the observability layer: Run must
// emit the session → round → client_round → local_steps span tree and one
// ledger line per round, and the tracing hooks must not reintroduce
// allocations or measurable overhead into the training hot path.

type simSpan struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent"`
	Name   string `json:"name"`
	Round  *int   `json:"round"`
	Client *int   `json:"client"`
	DurNS  int64  `json:"dur_ns"`
}

func decodeSimSpans(t *testing.T, buf *bytes.Buffer) []simSpan {
	t.Helper()
	var spans []simSpan
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var s simSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	return spans
}

type simLedgerLine struct {
	Kind       string    `json:"kind"`
	Algo       string    `json:"algo"`
	Round      int       `json:"round"`
	Attempt    int       `json:"attempt"`
	OK         bool      `json:"ok"`
	Loss       *float64  `json:"loss"`
	DurNS      int64     `json:"dur_ns"`
	UpBytes    int64     `json:"up_bytes"`
	DownBytes  int64     `json:"down_bytes"`
	ClientID   []int     `json:"client_id"`
	ClientLoss []float64 `json:"client_loss"`
	ClientNorm []float64 `json:"client_norm"`
	MMDDim     int       `json:"mmd_dim"`
	MMD        []float64 `json:"mmd"`
}

func simFederation(t *testing.T, clients int, cfg Config) *Federation {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	shards := make([]*data.Dataset, clients)
	for i := range shards {
		shards[i] = allocTestDataset(rng, 96, 16, 4)
	}
	return NewFederation(cfg, shards, nil)
}

func TestRunEmitsTraceAndLedger(t *testing.T) {
	const clients, rounds = 3, 2
	var traceBuf, ledgerBuf bytes.Buffer
	cfg := Config{
		Builder: nn.NewMLP(16, 12, 8, 4), ModelSeed: 1, Seed: 2,
		LocalSteps: 2, BatchSize: 8, Workers: 2,
		Tracer: telemetry.NewTracer(&traceBuf),
		Ledger: telemetry.NewRunLedger(&ledgerBuf),
	}
	f := simFederation(t, clients, cfg)
	Run(f, NewFedAvg(), rounds)

	spans := decodeSimSpans(t, &traceBuf)
	byName := map[string][]simSpan{}
	byID := map[string]simSpan{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.Span] = s
	}
	if len(byName["session"]) != 1 {
		t.Fatalf("got %d session spans, want 1", len(byName["session"]))
	}
	root := byName["session"][0]
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %s in trace %q, want %q", s.Name, s.Trace, root.Trace)
		}
	}
	if len(byName["round"]) != rounds {
		t.Fatalf("got %d round spans, want %d", len(byName["round"]), rounds)
	}
	for _, r := range byName["round"] {
		if r.Parent != root.Span || r.Round == nil {
			t.Errorf("round span parent=%q round=%v", r.Parent, r.Round)
		}
	}
	if n := len(byName["client_round"]); n != rounds*clients {
		t.Errorf("got %d client_round spans, want %d", n, rounds*clients)
	}
	for _, s := range byName["client_round"] {
		if p, ok := byID[s.Parent]; !ok || p.Name != "round" {
			t.Errorf("client_round parents to %q, want a round span", s.Parent)
		}
		if s.Client == nil {
			t.Error("client_round span missing client attribute")
		}
	}
	if n := len(byName["local_steps"]); n != rounds*clients {
		t.Errorf("got %d local_steps spans, want %d", n, rounds*clients)
	}
	for _, s := range byName["local_steps"] {
		if p, ok := byID[s.Parent]; !ok || p.Name != "client_round" {
			t.Errorf("local_steps parents to %q, want a client_round span", s.Parent)
		}
	}

	sc := bufio.NewScanner(&ledgerBuf)
	var lines []simLedgerLine
	for sc.Scan() {
		var l simLedgerLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("ledger line %q: %v", sc.Text(), err)
		}
		if l.Kind == "round" {
			lines = append(lines, l)
		}
	}
	if len(lines) != rounds {
		t.Fatalf("got %d ledger lines, want %d", len(lines), rounds)
	}
	for i, l := range lines {
		if l.Algo != "FedAvg" || l.Round != i || l.Attempt != 1 || !l.OK {
			t.Errorf("line %d identity: %+v", i, l)
		}
		if l.Loss == nil || *l.Loss <= 0 {
			t.Errorf("line %d loss = %v", i, l.Loss)
		}
		if l.DurNS <= 0 || l.UpBytes <= 0 || l.DownBytes <= 0 {
			t.Errorf("line %d dur/bytes: %+v", i, l)
		}
		if len(l.ClientID) != clients || len(l.ClientLoss) != clients || len(l.ClientNorm) != clients {
			t.Errorf("line %d client arrays: id=%d loss=%d norm=%d",
				i, len(l.ClientID), len(l.ClientLoss), len(l.ClientNorm))
		}
		for _, n := range l.ClientNorm {
			if n <= 0 {
				t.Errorf("line %d non-positive update norm %v", i, n)
			}
		}
		// FedAvg has no δ table; the MMD section must be absent.
		if l.MMDDim != 0 || len(l.MMD) != 0 {
			t.Errorf("line %d unexpected MMD section: dim=%d len=%d", i, l.MMDDim, len(l.MMD))
		}
	}
}

// TestLocalTrainTracedSteadyStateAllocs re-runs the zero-alloc contract with
// tracing enabled: the local_steps span plus a per-step feature-gradient
// span must add zero allocations once the tracer's buffer is sized.
func TestLocalTrainTracedSteadyStateAllocs(t *testing.T) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	// The no-op feature gradient in tracedDenseStep exercises the per-step
	// mmd_grad span without pulling the regularizer (package core) into
	// fl's tests.
	step := tracedDenseStep(telemetry.NewTracer(io.Discard), 1)
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("traced train step: %.1f allocs/op, want 0", allocs)
	}
}

// tracedDenseStep returns a closure running one LocalTrain of a dense MLP
// client (E local steps, each with a no-op feature-gradient hook so the
// per-step mmd_grad span fires) under the given tracer; nil means untraced.
func tracedDenseStep(tracer *telemetry.Tracer, localSteps int) func() {
	rng := rand.New(rand.NewSource(9))
	ds := allocTestDataset(rng, 512, 64, 10)
	cfg := Config{Builder: nn.NewMLP(64, 64, 32, 10), ModelSeed: 1, Seed: 2,
		LocalSteps: localSteps, BatchSize: 32, Workers: 1, Tracer: tracer}
	f := NewFederation(cfg, []*data.Dataset{ds}, nil)
	w, c := f.Worker(0), f.Clients[0]
	w.spanCtx = tracer.Start("client_round", telemetry.SpanContext{}).Context()
	trainRNG := rand.New(rand.NewSource(10))
	o := f.DefaultLocalOpts(0)
	o.FeatGrad = func(feat *tensor.Tensor) *tensor.Tensor { return nil }
	step := func() { f.LocalTrain(w, c, trainRNG, o) }
	for i := 0; i < 5; i++ { // warm arenas and tracer buffer
		step()
	}
	return step
}

// spanSink counts what a tracer writes; the tracer issues one Write per
// finished span.
type spanSink struct{ spans, bytes int }

func (s *spanSink) Write(p []byte) (int, error) {
	s.spans++
	s.bytes += len(p)
	return len(p), nil
}

// TestTracingOverheadBounded bounds what tracing adds to a dense local step
// by the work it does, which is deterministic, instead of by a wall-clock
// ratio, which on a ~120µs step measures the scheduler (the ratio lives on
// in BenchmarkTracingOverhead): one LocalTrain of E steps emits exactly
// 1+E spans (local_steps plus one mmd_grad per step), each a single write
// of at most 256 bytes, and allocates nothing.
func TestTracingOverheadBounded(t *testing.T) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	const localSteps, runs = 3, 20
	sink := &spanSink{}
	step := tracedDenseStep(telemetry.NewTracer(sink), localSteps)
	*sink = spanSink{}
	allocs := testing.AllocsPerRun(runs, step) // runs+1 calls: one warm-up
	if allocs != 0 {
		t.Errorf("traced train step: %.1f allocs/op, want 0", allocs)
	}
	if want := (runs + 1) * (1 + localSteps); sink.spans != want {
		t.Errorf("%d LocalTrain calls of %d steps emitted %d spans, want %d", runs+1, localSteps, sink.spans, want)
	}
	if perSpan := sink.bytes / sink.spans; perSpan > 256 {
		t.Errorf("tracer wrote %d bytes per span, want ≤ 256", perSpan)
	}
}

// BenchmarkTracingOverhead reports, without asserting, the wall-clock cost
// of tracing a dense local step (two spans): untraced and traced steps
// alternate inside one loop so both see the same machine state.
func BenchmarkTracingOverhead(b *testing.B) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	plain := tracedDenseStep(nil, 1)
	traced := tracedDenseStep(telemetry.NewTracer(io.Discard), 1)
	steps := [2]func(){plain, traced}
	var ns [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := i & 1 // alternate which goes first: the second runs warmer
		t0 := time.Now()
		steps[first]()
		t1 := time.Now()
		steps[1-first]()
		ns[first] += t1.Sub(t0)
		ns[1-first] += time.Since(t1)
	}
	b.ReportMetric(float64(ns[1])/float64(ns[0]), "traced/untraced")
}
