package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "first")
	b := r.Counter("x_total", "second help ignored")
	if a != b {
		t.Fatal("re-registering a counter must return the same metric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name as a different kind must panic")
		}
	}()
	r.Gauge("x_total", "wrong kind")
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat{phase="join"}`, "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-12 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP lat latency",
		"# TYPE lat histogram",
		`lat_bucket{phase="join",le="0.1"} 1`,
		`lat_bucket{phase="join",le="1"} 3`,
		`lat_bucket{phase="join",le="10"} 4`,
		`lat_bucket{phase="join",le="+Inf"} 5`,
		`lat_sum{phase="join"} 56.05`,
		`lat_count{phase="join"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Series sharing a base name must be grouped under one header, and HELP/TYPE
// must not repeat.
func TestWriteTextGroupsLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter(`bytes_total{algo="fedavg"}`, "bytes").Add(1)
	r.Counter("other_total", "other").Add(2)
	r.Counter(`bytes_total{algo="rfedavg+"}`, "bytes").Add(3)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "# TYPE bytes_total counter") != 1 {
		t.Fatalf("TYPE header must appear exactly once:\n%s", out)
	}
	// Both label variants present, grouped before the next family's header.
	typeIdx := strings.Index(out, "# TYPE bytes_total")
	otherIdx := strings.Index(out, "# TYPE other_total")
	for _, series := range []string{`bytes_total{algo="fedavg"} 1`, `bytes_total{algo="rfedavg+"} 3`} {
		i := strings.Index(out, series)
		if i < typeIdx || (otherIdx > typeIdx && otherIdx < i && typeIdx < otherIdx) && i > otherIdx {
			t.Fatalf("series %q not grouped under its family header:\n%s", series, out)
		}
	}
}

// The zero-alloc contract: recording into any metric after registration
// performs no heap allocation, so instrumentation may sit inside the
// allocation-free train step.
func TestRecordOperationsAllocateNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefDurationBuckets)
	if a := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); a != 0 {
		t.Errorf("Counter: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(0.5) }); a != 0 {
		t.Errorf("Gauge: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.042) }); a != 0 {
		t.Errorf("Histogram: %v allocs/op, want 0", a)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d, histogram %d", c.Value(), h.Count())
	}
	if math.Abs(h.Sum()-12000) > 1e-6 {
		t.Fatalf("histogram sum %v, want 12000", h.Sum())
	}
}

// Phases.Time is the one clock of a phase: the duration it returns is what
// the histogram observed and what the ledger line carries, and timing a phase
// allocates nothing, with a nil tracer or a real one.
func TestPhasesTimeOnceAllocateNothing(t *testing.T) {
	var hist [NumPhases]*Histogram
	reg := NewRegistry()
	for p := range NumPhases {
		hist[p] = reg.Histogram(`p{phase="`+p.String()+`"}`, "", DefDurationBuckets)
	}
	var rec RoundRecord
	ps := Phases{Hist: &hist, Rec: &rec}
	d := ps.Time(PhaseGather, SpanContext{}, 0, func(SpanContext) { time.Sleep(5 * time.Millisecond) })
	if d < 5*time.Millisecond || hist[PhaseGather].Count() != 1 || hist[PhaseGather].Sum() != d.Seconds() {
		t.Fatalf("gather took %v; histogram count=%d sum=%v", d, hist[PhaseGather].Count(), hist[PhaseGather].Sum())
	}
	if rec.phaseNanos[PhaseGather] != int64(d) {
		t.Fatalf("ledger gather %dns, phase %v", rec.phaseNanos[PhaseGather], d)
	}
	if d := ps.Time(PhaseRound, SpanContext{}, 0, func(SpanContext) {}); rec.DurNanos != int64(d) {
		t.Fatalf("ledger dur_ns %d, round %v", rec.DurNanos, d)
	}
	var buf bytes.Buffer
	NewRunLedger(&buf).Record(&rec)
	if want := `"phase_ms":{"gather":` + strconv.FormatFloat(float64(d)/1e6, 'g', -1, 64) + `},`; !strings.Contains(buf.String(), want) {
		t.Fatalf("ledger line %s lacks %s", buf.String(), want)
	}

	calls := 0
	run := func(SpanContext) { calls++ }
	for _, tr := range []*Tracer{nil, NewTracer(io.Discard)} {
		ps := Phases{Tracer: tr, Hist: &hist, Rec: &rec}
		ps.Time(PhaseGather, SpanContext{}, 0, run) // size the tracer's buffer
		if a := testing.AllocsPerRun(1000, func() { ps.Time(PhaseGather, SpanContext{}, 3, run) }); a != 0 {
			t.Errorf("Phases.Time (tracer %v): %v allocs/op, want 0", tr != nil, a)
		}
	}
	if calls != 2*1002 {
		t.Fatalf("run called %d times, want %d", calls, 2*1002)
	}
}

func TestRunLedgerEmitsEventLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLedger(&buf)
	l.Emit("evict", 3, `client 1: gather: "timeout"`)
	l.Emit("checkpoint", 4, "")
	var nilLog *RunLedger
	nilLog.Emit("ignored", 0, "") // must not panic
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var ev struct {
		Kind   string `json:"kind"`
		TS     string `json:"ts"`
		Event  string `json:"event"`
		Round  int    `json:"round"`
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	if ev.Kind != "event" || ev.Event != "evict" || ev.Round != 3 || !strings.Contains(ev.Detail, "timeout") {
		t.Fatalf("event fields wrong: %+v", ev)
	}
	if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
		t.Fatalf("timestamp %q: %v", ev.TS, err)
	}
	ev.Detail = ""
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if strings.Contains(lines[1], "detail") {
		t.Fatalf("empty detail must be omitted, got %q", lines[1])
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("smoke_total", "smoke").Add(7)
	srv, err := ListenAndServe("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "smoke_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d body %q", code, body)
	}
}

func TestWriteSummarySkipsSilentMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fired_total", "").Add(2)
	r.Counter("silent_total", "")
	r.Gauge("level", "").Set(0)
	h := r.Histogram("obs", "", []float64{1})
	h.Observe(0.5)
	h.Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fired_total") || strings.Contains(out, "silent_total") {
		t.Fatalf("summary selection wrong:\n%s", out)
	}
	if !strings.Contains(out, "level") {
		t.Fatalf("gauges must always appear:\n%s", out)
	}
	if !strings.Contains(out, "count=2") || !strings.Contains(out, "mean=1") {
		t.Fatalf("histogram summary wrong:\n%s", out)
	}
}
