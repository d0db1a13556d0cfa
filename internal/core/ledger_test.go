package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// These tests pin the regularized algorithms' side of the run ledger: the
// pairwise MMD matrix lands in each round's record, the δ recomputation is
// traced, and — the paper's Table III claim — the ledger's byte accounting
// shows rFedAvg scaling as O(dN²) while rFedAvg+ stays O(dN).

type coreLedgerLine struct {
	Algo      string    `json:"algo"`
	Round     int       `json:"round"`
	DownBytes int64     `json:"down_bytes"`
	Elided    int       `json:"elided"`
	UpBytes   int64     `json:"up_bytes"`
	UpScheme  string    `json:"up_scheme"`
	ReconErr  *float64  `json:"recon_err"`
	ClientID  []int     `json:"client_id"`
	Cohort    int       `json:"cohort"`
	LossStats []float64 `json:"loss_stats"`
	NormStats []float64 `json:"norm_stats"`
	MMDDim    int       `json:"mmd_dim"`
	MMDSample []int     `json:"mmd_sample"`
	MMD       []float64 `json:"mmd"`
	DeltaAges []int     `json:"delta_ages"`
	StaleRows *int      `json:"stale_rows"`
	LateID    []int     `json:"late_id"`
	LateAge   []int     `json:"late_age"`
}

func decodeCoreLedger(t *testing.T, buf *bytes.Buffer) []coreLedgerLine {
	t.Helper()
	var lines []coreLedgerLine
	sc := bufio.NewScanner(buf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20) // detail-mode lines outgrow the default token cap
	for sc.Scan() {
		var l coreLedgerLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("ledger line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("ledger scan: %v", err)
	}
	return lines
}

// ledgerFederation is tinyFederation with observability sinks attached.
func ledgerFederation(t *testing.T, clients int, tracer *telemetry.Tracer, ledger *telemetry.RunLedger) *fl.Federation {
	t.Helper()
	train := data.SynthMNIST(40*clients, 1)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionBySimilarity(train.Y, clients, 0, rng)
	shards := make([]*data.Dataset, clients)
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	cfg := fl.Config{
		Builder:    nn.NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed:  7,
		Seed:       11,
		LocalSteps: 1,
		BatchSize:  10,
		LR:         opt.ConstLR(0.1),
		Tracer:     tracer,
		Ledger:     ledger,
		// Per-client detail up to N=16; the scaling runs above that record
		// summary statistics and the sampled MMD sub-matrix, keeping every
		// ledger line O(1) as the curves grow.
		LedgerDetailN: 16,
	}
	return fl.NewFederation(cfg, shards, nil)
}

func TestSimLedgerRecordsMMDAndDeltaSpans(t *testing.T) {
	const clients, rounds = 4, 2
	var traceBuf, ledgerBuf bytes.Buffer
	f := ledgerFederation(t, clients, telemetry.NewTracer(&traceBuf), telemetry.NewRunLedger(&ledgerBuf))
	fl.Run(f, NewRFedAvgPlus(1e-3), rounds)

	lines := decodeCoreLedger(t, &ledgerBuf)
	if len(lines) != rounds {
		t.Fatalf("got %d ledger lines, want %d", len(lines), rounds)
	}
	for i, l := range lines {
		if l.Algo != "rFedAvg+" || l.Round != i {
			t.Errorf("line %d identity: %+v", i, l)
		}
		if l.MMDDim != clients || len(l.MMD) != clients*clients {
			t.Fatalf("line %d MMD matrix: dim=%d len=%d", i, l.MMDDim, len(l.MMD))
		}
		for a := 0; a < clients; a++ {
			if l.MMD[a*clients+a] != 0 {
				t.Errorf("line %d MMD diagonal [%d] = %v", i, a, l.MMD[a*clients+a])
			}
			for b := 0; b < clients; b++ {
				if l.MMD[a*clients+b] != l.MMD[b*clients+a] {
					t.Errorf("line %d MMD not symmetric at (%d,%d)", i, a, b)
				}
			}
		}
	}
	// Round 1 trains against round 0's refreshed maps: the matrix must have
	// non-zero off-diagonal mass once the table is populated.
	mass := 0.0
	last := lines[rounds-1]
	for _, v := range last.MMD {
		mass += v
	}
	if mass <= 0 {
		t.Error("populated δ table produced an all-zero MMD matrix")
	}

	counts := map[string]int{}
	sc := bufio.NewScanner(&traceBuf)
	for sc.Scan() {
		var s struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		counts[s.Name]++
	}
	if counts["compute_delta"] != rounds*clients {
		t.Errorf("got %d compute_delta spans, want %d", counts["compute_delta"], rounds*clients)
	}
	if counts["mmd_grad"] == 0 {
		t.Error("no mmd_grad spans from regularized local steps")
	}
	// rFedAvg+'s double synchronization maps each client twice per round.
	if counts["client_round"] != 2*rounds*clients {
		t.Errorf("got %d client_round spans, want %d", counts["client_round"], 2*rounds*clients)
	}
}

// TestLedgerBytesScalingMatchesTableIII reads per-round wire volume out of
// the run ledger for N ∈ {4, 8, 16} and checks the asymptotics the paper
// claims: subtracting the model-broadcast baseline N·PayloadBytes(P) shared
// by every algorithm, rFedAvg's remaining download is N·PayloadBytes(N·d) —
// quadrupling when N doubles (O(dN²)) — while rFedAvg+'s remainder only
// doubles (O(dN)): N·(PayloadBytes(P)+PayloadBytes(d)) in round 0, and from
// round 1 on, when every client already holds the model the second
// synchronization delivered, exactly N·PayloadBytes(d).
func TestLedgerBytesScalingMatchesTableIII(t *testing.T) {
	downFor := func(alg fl.Algorithm, clients int) (down, baseline int64) {
		var buf bytes.Buffer
		f := ledgerFederation(t, clients, nil, telemetry.NewRunLedger(&buf))
		fl.Run(f, alg, 1)
		lines := decodeCoreLedger(t, &buf)
		if len(lines) != 1 {
			t.Fatalf("got %d ledger lines, want 1", len(lines))
		}
		return lines[0].DownBytes, int64(clients) * fl.PayloadBytes(f.NumParams())
	}

	extra := func(sizes []int, mk func() fl.Algorithm) []float64 {
		out := make([]float64, len(sizes))
		for i, n := range sizes {
			down, base := downFor(mk(), n)
			if down <= base {
				t.Fatalf("N=%d: download %d not above model baseline %d", n, down, base)
			}
			out[i] = float64(down - base)
		}
		return out
	}

	// The quadratic curve stops at N=16 (its accounting alone is the claim);
	// the linear curve runs past the summary-ledger threshold territory to
	// N=64, where a broken O(dN) story would compound visibly.
	quadSizes := []int{4, 8, 16}
	linSizes := []int{4, 8, 16, 32, 64}
	quad := extra(quadSizes, func() fl.Algorithm { return NewRFedAvg(1e-3) })
	lin := extra(linSizes, func() fl.Algorithm { return NewRFedAvgPlus(1e-3) })

	for i := 1; i < len(quadSizes); i++ {
		r := quad[i] / quad[i-1]
		if r < 3.5 || r > 4.1 {
			t.Errorf("rFedAvg extra download ratio N=%d/N=%d is %.2f, want ~4 (O(dN²))",
				quadSizes[i], quadSizes[i-1], r)
		}
	}
	for i := 1; i < len(linSizes); i++ {
		r := lin[i] / lin[i-1]
		if r < 1.9 || r > 2.1 {
			t.Errorf("rFedAvg+ extra download ratio N=%d/N=%d is %.2f, want ~2 (O(dN))",
				linSizes[i], linSizes[i-1], r)
		}
	}

	// Steady state: each model version reaches a client once, so all that
	// rFedAvg+ downloads above FedAvg is the O(d) target per client.
	for _, n := range linSizes {
		var buf bytes.Buffer
		f := ledgerFederation(t, n, nil, telemetry.NewRunLedger(&buf))
		fl.Run(f, NewRFedAvgPlus(1e-3), 3)
		for _, l := range decodeCoreLedger(t, &buf)[1:] {
			extra := l.DownBytes - int64(n)*fl.PayloadBytes(f.NumParams())
			if want := int64(n) * fl.PayloadBytes(f.FeatureDim()); extra != want || l.Elided != n {
				t.Errorf("N=%d round %d: %d bytes above the FedAvg baseline with %d models elided, want %d with %d",
					n, l.Round, extra, l.Elided, want, n)
			}
		}
	}

	// A sampled run elides nothing — which cohorts overlap is a draw of the
	// seed — so every round costs what round 0 does.
	var buf bytes.Buffer
	f := ledgerFederation(t, 16, nil, telemetry.NewRunLedger(&buf))
	f.Cfg.SampleRatio = 0.5
	fl.Run(f, NewRFedAvgPlus(1e-3), 4)
	lines := decodeCoreLedger(t, &buf)
	for _, l := range lines {
		if l.Elided != 0 || l.DownBytes != lines[0].DownBytes {
			t.Errorf("sampled round %d: %d down bytes with %d models elided, want round 0's %d with none",
				l.Round, l.DownBytes, l.Elided, lines[0].DownBytes)
		}
	}
}

// The compressed variant of the Table III accounting: with the int8 uplink
// codec, the ledger's up_bytes must shrink at least 4× against the dense
// run (int8 is ~8×: 1 byte per value + a 4-byte scale), and each line must
// name the scheme and carry a finite reconstruction error.
func TestLedgerBytesCompressedUplinkReduction(t *testing.T) {
	upFor := func(s compress.Scheme) []coreLedgerLine {
		var buf bytes.Buffer
		f := ledgerFederation(t, 4, nil, telemetry.NewRunLedger(&buf))
		f.Cfg.Compress = s
		fl.Run(f, NewRFedAvgPlus(1e-3), 2)
		return decodeCoreLedger(t, &buf)
	}
	dense := upFor(compress.SchemeDense)
	q8 := upFor(compress.SchemeInt8)
	if len(dense) != 2 || len(q8) != 2 {
		t.Fatalf("ledger lines: dense %d, q8 %d", len(dense), len(q8))
	}
	for i := range q8 {
		if dense[i].UpScheme != "" || dense[i].ReconErr != nil {
			t.Fatalf("dense line %d carries codec fields: %+v", i, dense[i])
		}
		if q8[i].UpScheme != "q8" {
			t.Fatalf("line %d up_scheme %q, want q8", i, q8[i].UpScheme)
		}
		if q8[i].ReconErr == nil || *q8[i].ReconErr <= 0 || *q8[i].ReconErr >= 1 {
			t.Fatalf("line %d recon_err %v, want finite in (0,1)", i, q8[i].ReconErr)
		}
		if q8[i].UpBytes*4 > dense[i].UpBytes {
			t.Fatalf("line %d: q8 up %d bytes not ≥4× below dense %d",
				i, q8[i].UpBytes, dense[i].UpBytes)
		}
		if q8[i].DownBytes != dense[i].DownBytes {
			t.Fatalf("line %d: downlink changed under an uplink-only codec: %d vs %d",
				i, q8[i].DownBytes, dense[i].DownBytes)
		}
	}
}

// Above the detail threshold the ledger line must flip to summary form:
// cohort count plus min/mean/max triples instead of per-client arrays, and
// a K×K sampled MMD sub-matrix instead of the N×N block.
func TestSimLedgerSummaryModeAboveDetailN(t *testing.T) {
	const clients, rounds = 32, 2 // threshold in ledgerFederation is 16
	var buf bytes.Buffer
	f := ledgerFederation(t, clients, nil, telemetry.NewRunLedger(&buf))
	fl.Run(f, NewRFedAvgPlus(1e-3), rounds)

	lines := decodeCoreLedger(t, &buf)
	if len(lines) != rounds {
		t.Fatalf("got %d ledger lines, want %d", len(lines), rounds)
	}
	k := telemetry.LedgerMMDSampleK
	for i, l := range lines {
		if len(l.ClientID) != 0 {
			t.Fatalf("line %d carries per-client detail above the threshold: %v", i, l.ClientID)
		}
		if l.Cohort != clients {
			t.Fatalf("line %d cohort = %d, want %d", i, l.Cohort, clients)
		}
		if len(l.LossStats) != 3 || len(l.NormStats) != 3 {
			t.Fatalf("line %d stats triples: loss %v norm %v", i, l.LossStats, l.NormStats)
		}
		if l.LossStats[0] > l.LossStats[1] || l.LossStats[1] > l.LossStats[2] {
			t.Fatalf("line %d loss_stats not ordered min≤mean≤max: %v", i, l.LossStats)
		}
		if l.MMDDim != k || len(l.MMD) != k*k || len(l.MMDSample) != k {
			t.Fatalf("line %d sampled MMD: dim=%d len=%d sample=%v", i, l.MMDDim, len(l.MMD), l.MMDSample)
		}
		if l.MMDSample[0] != 0 || l.MMDSample[k-1] != clients-1 {
			t.Fatalf("line %d sample ids must span [0, N-1]: %v", i, l.MMDSample)
		}
	}
	// A populated table's sampled sub-matrix still shows off-diagonal mass.
	mass := 0.0
	for _, v := range lines[rounds-1].MMD {
		mass += v
	}
	if mass <= 0 {
		t.Error("sampled MMD sub-matrix is all zero on a populated table")
	}
}

// The simulator's ledger carries the server's blocks, written by the same
// engine calls: the cohort that aggregated, every δ row's age with the stale
// count, and an async round's folds with their ages.
func TestSimLedgerCarriesServerBlocks(t *testing.T) {
	const clients = 6
	var buf bytes.Buffer
	f := ledgerFederation(t, clients, nil, telemetry.NewRunLedger(&buf))
	a := NewRFedAvgPlus(1e-3)
	a.MaxStale = 1
	fl.Run(f, a, 2)
	for i, l := range decodeCoreLedger(t, &buf) {
		if l.Cohort != clients || len(l.DeltaAges) != clients || l.StaleRows == nil || *l.StaleRows != 0 {
			t.Fatalf("line %d: cohort %d, delta_ages %v, stale_rows %v; want %d, %d ages, 0",
				i, l.Cohort, l.DeltaAges, l.StaleRows, clients, clients)
		}
		for k, age := range l.DeltaAges {
			if age != 1 {
				t.Fatalf("line %d: row %d age %d, want 1 (refreshed, then ticked)", i, k, age)
			}
		}
	}

	buf.Reset()
	f = ledgerFederation(t, clients, nil, telemetry.NewRunLedger(&buf))
	f.Cfg.BufferK = 3
	f.Cfg.SlowFactor = []float64{1, 1, 1, 1, 6, 6}
	fl.Run(f, fl.NewFedAvg(), 2)
	lines := decodeCoreLedger(t, &buf)
	if l := lines[0]; l.Cohort != 3 || len(l.LateID) != 0 {
		t.Fatalf("round 0: cohort %d, late %v; want 3 fresh, nothing folded", l.Cohort, l.LateID)
	}
	l := lines[1]
	if l.Cohort != 6 || len(l.ClientID) != 3 || len(l.LateID) != 3 || len(l.LateAge) != 3 {
		t.Fatalf("round 1: cohort %d, fresh %v, late %v/%v; want 3 fresh + 3 folded", l.Cohort, l.ClientID, l.LateID, l.LateAge)
	}
	for j, id := range l.LateID {
		if l.LateAge[j] != 1 || contains(lines[0].ClientID, id) {
			t.Fatalf("round 1 folded client %d at age %d; want a round-0 straggler at age 1", id, l.LateAge[j])
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
