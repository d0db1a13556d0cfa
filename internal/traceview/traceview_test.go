package traceview

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The golden fixture testdata/stream.jsonl is a real transport session's
// observer stream (the same code path flsim -observe exercises); `go test
// -run Golden -update ./internal/traceview/` re-runs a session and rewrites
// it together with the rendered golden output.

var update = flag.Bool("update", false, "rewrite testdata fixtures and golden files")

// runTracedSession runs a short rFedAvg+ session over in-process pipes with
// tracing and a ledger attached and returns its raw observer stream.
func runTracedSession(t *testing.T, clients, rounds int) []byte {
	t.Helper()
	train := data.SynthMNIST(400, 1)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionBySimilarity(train.Y, clients, 0, rng)
	shards := make([]*data.Dataset, clients)
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	builder := nn.NewMLP(train.Features(), 24, 12, train.Classes)
	net := builder(7)

	var stream bytes.Buffer
	ledger := telemetry.NewRunLedger(&stream)
	tracer := ledger.Tracer()

	serverConns := make([]transport.Conn, clients)
	clientConns := make([]transport.Conn, clients)
	for i := 0; i < clients; i++ {
		serverConns[i], clientConns[i] = transport.Pipe()
	}
	scfg := transport.ServerConfig{
		Algorithm:     transport.AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Metrics:       telemetry.NewRegistry(),
		Tracer:        tracer,
		Ledger:        ledger,
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ccfg := transport.ClientConfig{
				Builder: builder, ModelSeed: 7, Seed: int64(100 + i), ClientID: i,
				LocalSteps: 5, BatchSize: 16, LR: opt.ConstLR(0.1), Lambda: 1e-3,
				Tracer: tracer,
			}
			if _, err := transport.RunClient(clientConns[i], shards[i], ccfg); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	if _, err := transport.Serve(scfg, serverConns); err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	return stream.Bytes()
}

func fixturePath(name string) string { return filepath.Join("testdata", name) }

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with -update): %v", name, err)
	}
	return b
}

func writeFixture(t *testing.T, name string, b []byte) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixturePath(name), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWaterfallGolden(t *testing.T) {
	if *update {
		writeFixture(t, "stream.jsonl", runTracedSession(t, 3, 2))
	}
	s, err := Read(bytes.NewReader(readFixture(t, "stream.jsonl")))
	if err != nil {
		t.Fatal(err)
	}
	spans, ledger := s.Spans, s.Rounds

	var out bytes.Buffer
	if err := Waterfall(&out, spans, ledger, 48); err != nil {
		t.Fatal(err)
	}
	if *update {
		writeFixture(t, "waterfall.golden", out.Bytes())
	}
	if got, want := out.String(), string(readFixture(t, "waterfall.golden")); got != want {
		t.Errorf("waterfall drifted from golden (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}

	out.Reset()
	if err := Summary(&out, ledger); err != nil {
		t.Fatal(err)
	}
	if *update {
		writeFixture(t, "summary.golden", out.Bytes())
	}
	if got, want := out.String(), string(readFixture(t, "summary.golden")); got != want {
		t.Errorf("summary drifted from golden (re-run with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWaterfallLiveRun renders a freshly traced session — timings and span
// IDs are new every run, so this pins the structure, not the bytes.
func TestWaterfallLiveRun(t *testing.T) {
	const clients, rounds = 3, 2
	stream, err := Read(bytes.NewReader(runTracedSession(t, clients, rounds)))
	if err != nil {
		t.Fatal(err)
	}
	spans, ledger := stream.Spans, stream.Rounds
	var out bytes.Buffer
	if err := Waterfall(&out, spans, ledger, 64); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"round 0", "round 1", "critical path:", "straggler: client", "client_round", "mmd_grad", "loss "} {
		if !strings.Contains(s, want) {
			t.Errorf("waterfall missing %q:\n%s", want, s)
		}
	}
	if got := strings.Count(s, "critical path:"); got != rounds {
		t.Errorf("got %d critical-path lines, want %d", got, rounds)
	}
	if got := strings.Count(s, "straggler:"); got != rounds {
		t.Errorf("got %d straggler lines, want %d", got, rounds)
	}
	// Every per-round block must attribute the straggler to a real client.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "straggler:") && !strings.Contains(line, "% of round") {
			t.Errorf("straggler line lacks attribution: %q", line)
		}
	}
}

func TestCompareTwoRuns(t *testing.T) {
	loss := func(v float64) *float64 { return &v }
	a := []LedgerLine{ // rFedAvg-shaped: big downloads
		{Algo: "rFedAvg", Round: 0, Attempt: 1, OK: true, Loss: loss(2.0), UpBytes: 100, DownBytes: 700,
			MMDDim: 2, MMD: []float64{0, 4, 4, 0}},
		{Algo: "rFedAvg", Round: 1, Attempt: 1, OK: true, Loss: loss(1.5), UpBytes: 100, DownBytes: 700},
	}
	b := []LedgerLine{
		{Algo: "rFedAvg+", Round: 0, Attempt: 1, OK: false, Loss: nil, UpBytes: 30, DownBytes: 70},
		{Algo: "rFedAvg+", Round: 0, Attempt: 2, OK: true, Loss: loss(2.0), UpBytes: 100, DownBytes: 300,
			MMDDim: 2, MMD: []float64{0, 3, 3, 0}},
		{Algo: "rFedAvg+", Round: 1, Attempt: 1, OK: true, Loss: loss(1.4), UpBytes: 100, DownBytes: 300},
	}
	var out bytes.Buffer
	if err := Compare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "rFedAvg (a) vs rFedAvg+ (b)") {
		t.Errorf("missing run names:\n%s", s)
	}
	// 1600 total for a, 800 for b (the failed attempt is excluded): ratio 2.
	if !strings.Contains(s, "a/b 2.00") {
		t.Errorf("missing total ratio:\n%s", s)
	}
	if !strings.Contains(s, "4.0000") || !strings.Contains(s, "3.0000") {
		t.Errorf("missing MMD trajectory values:\n%s", s)
	}
}

func TestMeanMMD(t *testing.T) {
	l := LedgerLine{MMDDim: 3, MMD: []float64{0, 1, 2, 1, 0, 3, 2, 3, 0}}
	if got := l.MeanMMD(); got != 2 {
		t.Errorf("MeanMMD = %v, want 2", got)
	}
	var empty LedgerLine
	if got := empty.MeanMMD(); got == got { // NaN
		t.Errorf("MeanMMD on empty = %v, want NaN", got)
	}
}

func TestWaterfallNoRounds(t *testing.T) {
	spans := []Span{{Trace: "1", Span: "2", Name: "session"}}
	if err := Waterfall(&bytes.Buffer{}, spans, nil, 0); err == nil {
		t.Error("expected error for a trace without round spans")
	}
}

func TestSummaryEmpty(t *testing.T) {
	if err := Summary(&bytes.Buffer{}, nil); err == nil {
		t.Error("expected error for an empty ledger")
	}
}

func TestSummaryRendersSummaryModeLines(t *testing.T) {
	loss := func(v float64) *float64 { return &v }
	// A summary-mode line: cohort count and stat triples instead of
	// per-client arrays, MMD as a sampled 2×2 sub-matrix.
	ledger := []LedgerLine{
		{Algo: "rFedAvg+", Round: 0, Attempt: 1, OK: true, Loss: loss(1.5),
			UpBytes: 1 << 20, DownBytes: 2 << 20,
			Cohort: 128, LossStats: []float64{1.1, 1.5, 2.2},
			MMDSample: []int{0, 99_999}, MMDDim: 2, MMD: []float64{0, 4, 4, 0}},
	}
	var out bytes.Buffer
	if err := Summary(&out, ledger); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "128") {
		t.Errorf("summary-mode cohort count missing:\n%s", s)
	}
	if !strings.Contains(s, "~4.0000") {
		t.Errorf("sampled MMD estimate not marked with ~:\n%s", s)
	}
}

// Every line names its kind; one that does not is an error at its line.
func TestReadRejectsLineWithoutKind(t *testing.T) {
	_, err := Read(strings.NewReader(`{"kind":"round","algo":"fedavg","round":0}` + "\n" + `{"algo":"fedavg","round":1}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), `kind ""`) {
		t.Fatalf("a line without kind read as %v", err)
	}
}
