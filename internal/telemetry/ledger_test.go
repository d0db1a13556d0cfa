package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// ledgerLine mirrors the ledger schema; pointer fields distinguish
// "omitted" from "zero", and *float64 catches NaN → null.
type ledgerLine struct {
	Kind       string     `json:"kind"`
	Algo       string     `json:"algo"`
	Round      int        `json:"round"`
	Attempt    int        `json:"attempt"`
	OK         bool       `json:"ok"`
	Loss       *float64   `json:"loss"`
	DurNS      int64      `json:"dur_ns"`
	UpBytes    int64      `json:"up_bytes"`
	DownBytes  int64      `json:"down_bytes"`
	ClientID   []int      `json:"client_id"`
	ClientLoss []*float64 `json:"client_loss"`
	ClientNorm []float64  `json:"client_norm"`
	MMDDim     *int       `json:"mmd_dim"`
	MMD        []float64  `json:"mmd"`
	DeltaAges  []int      `json:"delta_ages"`
	StaleRows  *int       `json:"stale_rows"`
	Evicted    []int      `json:"evicted"`
	Rejoins    *int       `json:"rejoins"`
}

func TestRunLedgerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLedger(&buf)
	rec := &RoundRecord{
		Algo: "rfedavg+", Round: 4, Attempt: 2, OK: true,
		Loss: 1.25, DurNanos: 42_000,
		UpBytes: 1024, DownBytes: 4096,
		ClientID:   []int{0, 2},
		ClientLoss: []float64{0.5, math.NaN()},
		ClientNorm: []float64{0.1, 0.2},
		MMD:        []float64{0, 1, 1, 0}, MMDDim: 2,
		DeltaAges: []int{0, 3}, StaleRows: 1,
		Evicted: []int{2}, Rejoins: 1,
	}
	l.Record(rec)

	var got ledgerLine
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("ledger line %q: %v", buf.String(), err)
	}
	if got.Kind != "round" || got.Algo != "rfedavg+" || got.Round != 4 || got.Attempt != 2 || !got.OK {
		t.Errorf("identity fields: %+v", got)
	}
	if got.Loss == nil || *got.Loss != 1.25 {
		t.Errorf("loss = %v, want 1.25", got.Loss)
	}
	if got.UpBytes != 1024 || got.DownBytes != 4096 || got.DurNS != 42_000 {
		t.Errorf("bytes/dur: %+v", got)
	}
	if len(got.ClientLoss) != 2 || got.ClientLoss[0] == nil || *got.ClientLoss[0] != 0.5 {
		t.Fatalf("client_loss = %v", got.ClientLoss)
	}
	if got.ClientLoss[1] != nil {
		t.Errorf("NaN client loss decoded as %v, want null", *got.ClientLoss[1])
	}
	if got.MMDDim == nil || *got.MMDDim != 2 || len(got.MMD) != 4 {
		t.Errorf("mmd: dim=%v matrix=%v", got.MMDDim, got.MMD)
	}
	if got.StaleRows == nil || *got.StaleRows != 1 || len(got.DeltaAges) != 2 {
		t.Errorf("staleness: %v / %v", got.StaleRows, got.DeltaAges)
	}
	if len(got.Evicted) != 1 || got.Evicted[0] != 2 || got.Rejoins == nil || *got.Rejoins != 1 {
		t.Errorf("faults: evicted=%v rejoins=%v", got.Evicted, got.Rejoins)
	}
}

func TestRunLedgerOmitsEmptySections(t *testing.T) {
	var buf bytes.Buffer
	NewRunLedger(&buf).Record(&RoundRecord{Algo: "fedavg", Round: 0, Attempt: 1, OK: true})
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("ledger line %q: %v", buf.String(), err)
	}
	for _, key := range []string{"client_id", "client_loss", "client_norm", "mmd", "mmd_dim", "delta_ages", "stale_rows", "evicted", "rejoins"} {
		if _, ok := m[key]; ok {
			t.Errorf("empty record carries %q", key)
		}
	}
	for _, key := range []string{"kind", "algo", "round", "attempt", "ok", "loss", "dur_ns", "up_bytes", "down_bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("record missing required key %q", key)
		}
	}
}

// One stream: a tracer from the ledger, round lines and event lines written
// from several goroutines land as whole lines, each with its kind. Round and
// event lines flush the buffered writer; span lines do not.
func TestRunLedgerOneStream(t *testing.T) {
	var file bytes.Buffer
	l := NewRunLedger(bufio.NewWriter(&file))
	tr := l.Tracer()
	tr.Start("local_steps", SpanContext{}).End()
	if file.Len() != 0 {
		t.Fatalf("a span line flushed the stream: %q", file.String())
	}
	l.Emit("checkpoint", 0, "c.ckpt")
	if n := bytes.Count(file.Bytes(), []byte("\n")); n != 2 {
		t.Fatalf("after an event line the file holds %d lines, want 2", n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rec := &RoundRecord{Algo: "fedavg", Round: g, ClientID: []int{g}, ClientLoss: []float64{1}}
			for i := 0; i < 50; i++ {
				tr.Start("round", SpanContext{}).End()
				l.Record(rec)
				l.Emit("retry", i, "detail")
			}
		}(g)
	}
	wg.Wait()
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(file.String(), "\n"), "\n") {
		var k struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &k); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		kinds[k.Kind]++
	}
	if kinds["span"] != 201 || kinds["round"] != 200 || kinds["event"] != 201 || len(kinds) != 3 {
		t.Fatalf("lines by kind %v, want 201 span, 200 round, 201 event", kinds)
	}
}

func TestRunLedgerNilSafe(t *testing.T) {
	var l *RunLedger
	l.Record(&RoundRecord{Algo: "x"}) // must not panic
}

func TestRoundRecordResetKeepsCapacity(t *testing.T) {
	rec := &RoundRecord{
		ClientLoss: make([]float64, 8, 16),
		MMD:        make([]float64, 4, 64),
	}
	rec.Reset()
	if len(rec.ClientLoss) != 0 || cap(rec.ClientLoss) != 16 {
		t.Errorf("ClientLoss after Reset: len=%d cap=%d", len(rec.ClientLoss), cap(rec.ClientLoss))
	}
	if cap(rec.MMD) != 64 {
		t.Errorf("MMD capacity dropped to %d", cap(rec.MMD))
	}
}

// TestRunLedgerSteadyStateAllocs pins the capture contract: refilling a
// reused RoundRecord and writing it allocates nothing once buffers are
// sized.
func TestRunLedgerSteadyStateAllocs(t *testing.T) {
	l := NewRunLedger(io.Discard)
	rec := &RoundRecord{
		ClientID:   make([]int, 0, 4),
		ClientLoss: make([]float64, 0, 4),
		ClientNorm: make([]float64, 0, 4),
		MMD:        make([]float64, 0, 16),
		DeltaAges:  make([]int, 0, 4),
		Evicted:    make([]int, 0, 4),
	}
	fill := func(round int) {
		rec.Reset()
		rec.Algo, rec.Round, rec.Attempt, rec.OK = "rfedavg+", round, 1, true
		rec.Loss, rec.DurNanos = 0.5, 12345
		rec.UpBytes, rec.DownBytes = 100, 200
		for c := 0; c < 4; c++ {
			rec.ClientID = append(rec.ClientID, c)
			rec.ClientLoss = append(rec.ClientLoss, float64(c))
			rec.ClientNorm = append(rec.ClientNorm, float64(c)/2)
		}
		rec.MMD = rec.MMD[:16]
		rec.MMDDim = 4
		rec.DeltaAges = append(rec.DeltaAges, 0, 1, 2, 3)
		rec.StaleRows = 1
	}
	for i := 0; i < 3; i++ { // size the emit buffer
		fill(i)
		l.Record(rec)
	}
	allocs := testing.AllocsPerRun(50, func() {
		fill(9)
		l.Record(rec)
	})
	if allocs != 0 {
		t.Errorf("ledger record: %.1f allocs/op, want 0", allocs)
	}
}
