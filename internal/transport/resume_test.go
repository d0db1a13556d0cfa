package transport

import (
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// determinismFixture runs one rFedAvg+ session with partial participation
// and per-slot client seeds, returning the server result. Checkpointing is
// on so a prefix run leaves a resumable state behind.
func runDeterministicSession(t *testing.T, fx *federatedFixture, rounds int, ckptPath string, resume *Checkpoint, reg *telemetry.Registry) *ServerResult {
	t.Helper()
	const clients = 4
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:      AlgoRFedAvgPlus,
		Rounds:         rounds,
		InitialParams:  net.GetFlat(),
		FeatureDim:     net.FeatureDim,
		SampleRatio:    0.5,
		Seed:           5,
		CheckpointPath: ckptPath,
		Resume:         resume,
		Metrics:        reg,
	}
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
			// Seeds are fixed per slot: a client of the resumed session
			// must draw the same batches as its phase-1 incarnation.
			cfg.Seed = int64(100 + i)
			if _, err := RunClient(clientConns[i], fx.shards[i], cfg); err != nil {
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

func sameCohorts(a, b []RoundCohort) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || len(a[i].Mask) != len(b[i].Mask) {
			return false
		}
		for j := range a[i].Mask {
			if a[i].Mask[j] != b[i].Mask[j] {
				return false
			}
		}
	}
	return true
}

// The headline regression test for resume/retry cohort determinism: a
// session killed after round 3 and resumed from its checkpoint must sample
// the same cohorts and produce bitwise-identical round losses as a session
// that never died. Before cohort sampling was keyed to (Seed, round), the
// resumed server restarted the sequential RNG stream from round 1's state
// and every post-resume round drew a different cohort.
func TestServeResumeSamplesIdenticalCohorts(t *testing.T) {
	const rounds = 6
	fx := newFixture(t, 4)

	full := runDeterministicSession(t, fx, rounds, t.TempDir()+"/full.ckpt", nil, telemetry.NewRegistry())
	if len(full.Cohorts) != rounds {
		t.Fatalf("full run recorded %d cohorts, want %d", len(full.Cohorts), rounds)
	}
	// Guard against a vacuous pass: with SR=0.5 over 4 clients the sampled
	// cohort must actually change across 6 rounds.
	varied := false
	for _, c := range full.Cohorts[1:] {
		for j := range c.Mask {
			if c.Mask[j] != full.Cohorts[0].Mask[j] {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("every round sampled the same cohort; the determinism assertions below would be vacuous")
	}

	// Run-to-run determinism: identical config, fresh processes.
	again := runDeterministicSession(t, fx, rounds, t.TempDir()+"/again.ckpt", nil, telemetry.NewRegistry())
	if !sameCohorts(full.Cohorts, again.Cohorts) {
		t.Fatalf("two identical runs sampled different cohorts:\n%v\n%v", full.Cohorts, again.Cohorts)
	}

	// Kill-and-resume: phase 1 stops cleanly after 3 rounds (equivalent,
	// from the checkpoint's viewpoint, to the server dying right after the
	// round-3 checkpoint landed), phase 2 resumes to round 6 with fresh
	// client processes.
	ckptPath := t.TempDir() + "/round.ckpt"
	prefix := runDeterministicSession(t, fx, 3, ckptPath, nil, telemetry.NewRegistry())
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck.Round != 3 {
		t.Fatalf("checkpoint at round %d, want 3", ck.Round)
	}
	resumed := runDeterministicSession(t, fx, rounds, ckptPath, ck, telemetry.NewRegistry())

	// The prefix rounds must match the full run exactly…
	if !sameCohorts(prefix.Cohorts, full.Cohorts[:3]) {
		t.Fatalf("prefix run cohorts diverge from the full run:\n%v\n%v", prefix.Cohorts, full.Cohorts[:3])
	}
	// …and the resumed session must continue the full run's cohort
	// sequence, not restart or shift it.
	if !sameCohorts(resumed.Cohorts, full.Cohorts[3:]) {
		t.Fatalf("resumed cohorts diverge from the uninterrupted run:\nresumed: %v\nfull[3:]: %v",
			resumed.Cohorts, full.Cohorts[3:])
	}

	// Losses are bitwise-reproducible: checkpointed floats round-trip
	// exactly and both cohort and batch sampling are keyed to the round.
	if len(resumed.RoundLosses) != rounds {
		t.Fatalf("resumed run has %d losses, want %d", len(resumed.RoundLosses), rounds)
	}
	for i := range full.RoundLosses {
		if math.Float64bits(resumed.RoundLosses[i]) != math.Float64bits(full.RoundLosses[i]) {
			t.Fatalf("round %d loss diverged: full %v, resumed %v", i+1, full.RoundLosses[i], resumed.RoundLosses[i])
		}
	}
}

// MaxStaleness used to be dead under plain FedAvg: the δ table only aged
// inside the rFedAvg+ branch. Now every successful round ticks the table,
// so a FedAvg session (whose rows are never refreshed) ages all N rows past
// the bound — observable through the session's staleness telemetry.
func TestMaxStalenessAdvancesUnderFedAvg(t *testing.T) {
	const clients, rounds = 3, 5
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	reg := telemetry.NewRegistry()
	scfg := ServerConfig{
		Algorithm:     AlgoFedAvg,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		MaxStaleness:  2,
		Metrics:       reg,
	}
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
			if _, err := RunClient(clientConns[i], fx.shards[i], cfg); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	if _, err := Serve(scfg, serverConns); err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	if got := reg.Gauge("rfl_delta_stale_rows", "").Value(); got != clients {
		t.Fatalf("after %d FedAvg rounds with MaxStaleness=2, stale rows = %v, want %d (all rows aged past the bound)",
			rounds, got, clients)
	}
	if got := reg.Histogram("rfl_delta_staleness_age", "", deltaAgeBuckets).Count(); got != rounds*clients {
		t.Fatalf("staleness histogram observed %d ages, want %d (N rows per round)", got, rounds*clients)
	}
}

// An evicted rFedAvg+ client's δ row ages past MaxStaleness and shows up in
// the stale-rows gauge while the survivors' rows stay fresh.
func TestStalenessExpiryAfterEviction(t *testing.T) {
	const clients, rounds = 3, 6
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	reg := telemetry.NewRegistry()
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		MaxStaleness:  2,
		Metrics:       reg,
	}
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
			if i == 0 {
				// 1 join + 4 ops per rFedAvg+ round: client 0 finishes
				// round 1 and dies on round 2's assign.
				conn = NewFaultConn(conn, FaultPlan{DisconnectAfterOps: 5, Seed: 1})
			}
			_, _ = RunClient(conn, fx.shards[i], cfg)
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	if len(res.Evictions) != 1 || res.Evictions[0].Client != 0 {
		t.Fatalf("expected exactly client 0 evicted, got %v", res.Evictions)
	}
	if got := reg.Gauge("rfl_delta_stale_rows", "").Value(); got != 1 {
		t.Fatalf("stale rows = %v, want 1 (the evicted client's row aged out)", got)
	}
	if len(res.RoundLosses) != rounds {
		t.Fatalf("session finished %d rounds, want %d", len(res.RoundLosses), rounds)
	}
}
