package transport

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// runAsyncFixtureSession runs one end-to-end session over pipe connections,
// letting the caller shape the ServerConfig after the fixture defaults are
// applied. Clients get fixed per-slot seeds so runs are reproducible, and
// an optional fault plan per slot.
func runAsyncFixtureSession(t *testing.T, fx *federatedFixture, clients int, plans map[int]FaultPlan, shape func(*ServerConfig)) *ServerResult {
	t.Helper()
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        4,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Seed:          5,
	}
	shape(&scfg)
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(100 + i)
			conn := clientConns[i]
			if plan, ok := plans[i]; ok {
				conn = NewFaultConn(conn, plan)
			}
			if _, err := RunClient(conn, fx.shards[i], cfg); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	return res
}

// A persistent straggler under async mode: rounds close at BufferK fresh
// updates, the straggler's updates arrive late and are folded into later
// rounds with a staleness discount instead of stalling or evicting.
func TestAsyncSessionFoldsStraggler(t *testing.T) {
	const clients, rounds = 4, 5
	fx := newFixture(t, clients)
	reg := telemetry.NewRegistry()
	var ledger bytes.Buffer
	// Every client pays a small per-op latency so rounds cannot outrun the
	// straggler entirely; client 2's is >3× larger, so it always misses the
	// BufferK cut but its update reliably lands while rounds are still
	// running.
	plans := map[int]FaultPlan{
		0: {StragglerDelay: 30 * time.Millisecond},
		1: {StragglerDelay: 30 * time.Millisecond},
		2: {StragglerDelay: 100 * time.Millisecond},
		3: {StragglerDelay: 30 * time.Millisecond},
	}
	res := runAsyncFixtureSession(t, fx, clients, plans, func(c *ServerConfig) {
		c.Rounds = rounds
		c.BufferK = clients - 1
		c.StalenessLambda = 0.5
		c.RoundDeadline = 10 * time.Second
		c.MinClients = 2
		c.Metrics = reg
		c.Ledger = telemetry.NewRunLedger(&ledger)
	})

	if len(res.RoundLosses) != rounds {
		t.Fatalf("async session completed %d rounds, want %d", len(res.RoundLosses), rounds)
	}
	for i, l := range res.RoundLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("round %d loss is %v", i, l)
		}
	}
	if len(res.Evictions) != 0 {
		t.Fatalf("the straggler must be buffered, not evicted: %+v", res.Evictions)
	}
	folds := reg.Counter("rfl_late_folds_total", "").Value()
	if folds < 1 {
		t.Fatalf("no late folds recorded; the straggler's updates were never aggregated")
	}
	if !strings.Contains(ledger.String(), `"late_id":[2]`) {
		t.Fatalf("ledger never attributed a late fold to client 2:\n%s", ledger.String())
	}
	// The model must still have learned through the folds.
	if res.RoundLosses[rounds-1] >= res.RoundLosses[0] {
		t.Fatalf("async losses did not decrease: %v", res.RoundLosses)
	}
}

// A buffer as large as the fleet is async plumbing with synchronous
// semantics: every cohort member is awaited, nothing is parked, and the
// result must be bitwise identical to the synchronous path — the guarantee
// that lets async sessions resume deterministically.
func TestAsyncFullBufferMatchesSync(t *testing.T) {
	const clients, rounds = 4, 4
	fx := newFixture(t, clients)
	shape := func(bufferK int) func(*ServerConfig) {
		return func(c *ServerConfig) {
			c.Rounds = rounds
			c.SampleRatio = 0.5
			c.BufferK = bufferK
			c.Metrics = telemetry.NewRegistry()
		}
	}
	syncRes := runAsyncFixtureSession(t, fx, clients, nil, shape(0))
	asyncRes := runAsyncFixtureSession(t, fx, clients, nil, shape(clients))

	if !sameCohorts(syncRes.Cohorts, asyncRes.Cohorts) {
		t.Fatalf("async BufferK=%d sampled different cohorts:\nsync:  %v\nasync: %v", clients, syncRes.Cohorts, asyncRes.Cohorts)
	}
	if len(syncRes.RoundLosses) != len(asyncRes.RoundLosses) {
		t.Fatalf("round counts differ: sync %d, async %d", len(syncRes.RoundLosses), len(asyncRes.RoundLosses))
	}
	for i := range syncRes.RoundLosses {
		if math.Float64bits(syncRes.RoundLosses[i]) != math.Float64bits(asyncRes.RoundLosses[i]) {
			t.Fatalf("round %d loss diverged: sync %v, async %v", i, syncRes.RoundLosses[i], asyncRes.RoundLosses[i])
		}
	}
	for i := range syncRes.FinalParams {
		if math.Float64bits(syncRes.FinalParams[i]) != math.Float64bits(asyncRes.FinalParams[i]) {
			t.Fatalf("final params diverge at %d: sync %v, async %v", i, syncRes.FinalParams[i], asyncRes.FinalParams[i])
		}
	}
}

// A checkpoint carrying async state round-trips exactly.
func TestCheckpointV2RoundTrip(t *testing.T) {
	ck := &Checkpoint{
		Round:       3,
		Global:      []float64{1.5, -2.25, math.Pi},
		DeltaRows:   [][]float64{{0.5, 0.25}, {-1, 2}},
		DeltaAges:   []int{1, 4},
		RoundLosses: []float64{2.1, 1.9, 1.7},
		UpdateAges:  []int{1, 3, 0, 2},
		Buffered: []BufferedUpdate{
			{Client: 1, Round: 2, Loss: 1.875, Params: []float64{0.125, -0.5, 3}},
			{Client: 3, Round: 1, Loss: 2.5, Params: []float64{1, 2, -4.75}},
		},
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Round != ck.Round {
		t.Fatalf("round: got %d, want %d", got.Round, ck.Round)
	}
	sameF := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v != %v", what, i, a[i], b[i])
			}
		}
	}
	sameF("global", got.Global, ck.Global)
	sameF("losses", got.RoundLosses, ck.RoundLosses)
	if len(got.UpdateAges) != len(ck.UpdateAges) {
		t.Fatalf("update ages: got %v, want %v", got.UpdateAges, ck.UpdateAges)
	}
	for i := range ck.UpdateAges {
		if got.UpdateAges[i] != ck.UpdateAges[i] {
			t.Fatalf("update ages: got %v, want %v", got.UpdateAges, ck.UpdateAges)
		}
	}
	if len(got.Buffered) != len(ck.Buffered) {
		t.Fatalf("buffered: got %d entries, want %d", len(got.Buffered), len(ck.Buffered))
	}
	for i, b := range ck.Buffered {
		g := got.Buffered[i]
		if g.Client != b.Client || g.Round != b.Round || math.Float64bits(g.Loss) != math.Float64bits(b.Loss) {
			t.Fatalf("buffered[%d]: got %+v, want %+v", i, g, b)
		}
		sameF("buffered params", g.Params, b.Params)
	}
}

// A resumed session re-parks the checkpoint's buffered updates and folds
// them into its first round, exactly as the killed session would have.
func TestResumeRestoresBufferedUpdates(t *testing.T) {
	const clients = 4
	fx := newFixture(t, clients)
	ckptPath := t.TempDir() + "/async.ckpt"

	// Phase 1: one clean async round leaves a checkpoint at round 1.
	reg1 := telemetry.NewRegistry()
	runAsyncFixtureSession(t, fx, clients, nil, func(c *ServerConfig) {
		c.Rounds = 1
		c.BufferK = clients
		c.CheckpointPath = ckptPath
		c.Metrics = reg1
	})
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck.Round != 1 || len(ck.Buffered) != 0 {
		t.Fatalf("phase-1 checkpoint: round %d, %d buffered, want 1 and 0", ck.Round, len(ck.Buffered))
	}

	// Simulate dying with client 0's round-0 update still parked: add it to
	// the checkpoint by hand (a perturbed copy of the global, as a real late
	// update would be).
	parked := append([]float64(nil), ck.Global...)
	for i := range parked {
		parked[i] += 0.01
	}
	ck.Buffered = append(ck.Buffered, BufferedUpdate{Client: 0, Round: 0, Loss: 2.0, Params: parked})

	// Phase 2: resume. Round 1 must exclude client 0 from its cohort (its
	// update is already parked) and fold the parked update with age 1.
	reg2 := telemetry.NewRegistry()
	var ledger bytes.Buffer
	res := runAsyncFixtureSession(t, fx, clients, nil, func(c *ServerConfig) {
		c.Rounds = 3
		c.BufferK = clients
		c.Resume = ck
		c.Metrics = reg2
		c.Ledger = telemetry.NewRunLedger(&ledger)
	})
	// RoundLosses carries the checkpointed round plus the two resumed ones.
	if len(res.RoundLosses) != 3 {
		t.Fatalf("resumed session has %d round losses, want 3 (1 restored + 2 run)", len(res.RoundLosses))
	}
	if got := reg2.Counter("rfl_late_folds_total", "").Value(); got != 1 {
		t.Fatalf("resumed session folded %d updates, want exactly the restored one", got)
	}
	if !strings.Contains(ledger.String(), `"late_id":[0],"late_age":[1]`) {
		t.Fatalf("restored fold not attributed to client 0 at age 1:\n%s", ledger.String())
	}
	if res.Cohorts[0].Mask[0] {
		t.Fatal("client 0 was re-assigned while its update was parked (double count)")
	}
}
