package transport

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// --- Acceptance: a hung client no longer blocks Serve forever. ---------------

// TestServeEvictsHungClient: client 1 joins, receives its first assignment,
// and then goes silent without closing its connection. The per-phase
// deadline must fire, the client must be evicted, and every round must
// complete over the survivor with renormalized weights.
func TestServeEvictsHungClient(t *testing.T) {
	fx := newFixture(t, 2)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoFedAvg,
		Rounds:        3,
		InitialParams: net.GetFlat(),
		RoundDeadline: 300 * time.Millisecond,
	}

	s0, c0 := Pipe()
	s1, c1 := Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = RunClient(c0, fx.shards[0], fx.ccfg)
	}()
	go func() {
		defer wg.Done()
		if err := c1.Send(&Message{Type: MsgJoin, NumSamples: 10}); err != nil {
			t.Errorf("join: %v", err)
			return
		}
		_, _ = c1.Recv() // take the assignment, then hang forever
	}()

	start := time.Now()
	res, err := Serve(scfg, []Conn{s0, s1})
	if err != nil {
		t.Fatalf("server must survive a hung client: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("session took %v — deadline did not fire", elapsed)
	}
	if len(res.RoundLosses) != 3 {
		t.Fatalf("completed %d rounds, want 3", len(res.RoundLosses))
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Client != 1 {
		t.Fatalf("expected client 1 evicted, got %+v", res.Evictions)
	}
	for _, loss := range res.RoundLosses {
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("renormalized aggregation produced non-finite loss: %v", res.RoundLosses)
		}
	}
	s0.Close()
	c0.Close()
	c1.Close()
	wg.Wait()
}

// --- The failure matrix: drop at join / mid-round / during δ sync / at done,
// --- slow past deadline, corrupt update. Run under -race via make test-race.

func TestServeFailureMatrix(t *testing.T) {
	const (
		clients = 3
		faulty  = 2 // index of the faulted client
		rounds  = 4
	)
	cases := []struct {
		name         string
		plan         FaultPlan
		deadline     time.Duration
		wantEvict    bool
		wantEvictRnd int    // checked only when wantEvict
		wantReason   string // substring; "" = any
	}{
		{
			// Dies sending its very first message.
			name:      "drop-at-join",
			plan:      FaultPlan{Seed: 1, DisconnectProb: 1},
			wantEvict: true, wantEvictRnd: -1,
		},
		{
			// join, recv assign survive; dies sending its round-0 update.
			name:      "crash-mid-round",
			plan:      FaultPlan{Seed: 1, DisconnectAfterOps: 2},
			wantEvict: true, wantEvictRnd: 0,
		},
		{
			// Survives the round-0 update; dies sending its δ map in the
			// second synchronization. Its stale row must carry the session.
			name:      "crash-during-delta-sync",
			plan:      FaultPlan{Seed: 1, DisconnectAfterOps: 4},
			wantEvict: true, wantEvictRnd: 0,
		},
		{
			// Survives all rounds; dies receiving MsgDone. Best-effort done
			// must not fail the session, and nobody is evicted.
			name:      "crash-at-done",
			plan:      FaultPlan{Seed: 1, DisconnectAfterOps: 1 + 4*rounds},
			wantEvict: false,
		},
		{
			// Every operation is delayed past the deadline: the join never
			// arrives in time and the client is evicted before round 0.
			name:      "slow-past-deadline",
			plan:      FaultPlan{Seed: 1, DelayProb: 1, MinDelay: 400 * time.Millisecond, MaxDelay: 700 * time.Millisecond},
			deadline:  150 * time.Millisecond,
			wantEvict: true, wantEvictRnd: -1,
			wantReason: "deadline",
		},
		{
			// Ships NaN-poisoned parameters: validation must evict the
			// sender instead of silently corrupting the global model.
			name:      "corrupt-update",
			plan:      FaultPlan{Seed: 1, CorruptProb: 1},
			wantEvict: true, wantEvictRnd: 0,
			wantReason: "non-finite",
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fx := newFixture(t, clients)
			net := fx.builder(fx.ccfg.ModelSeed)
			// A per-subtest registry keeps parallel cases from counting
			// into each other's series.
			reg := telemetry.NewRegistry()
			scfg := ServerConfig{
				Algorithm:     AlgoRFedAvgPlus,
				Rounds:        rounds,
				InitialParams: net.GetFlat(),
				FeatureDim:    net.FeatureDim,
				RoundDeadline: tc.deadline,
				Metrics:       reg,
			}
			if scfg.RoundDeadline == 0 {
				scfg.RoundDeadline = 5 * time.Second
			}

			seeded := func(i int) ClientConfig {
				cfg := fx.ccfg
				cfg.Seed = int64(400 + i)
				return cfg
			}
			plans := map[int]FaultPlan{faulty: tc.plan}
			res, err := ServePipes(scfg, fx.shards, seeded, plans)
			if res == nil {
				t.Fatalf("session must survive %s: %v", tc.name, err)
			}
			onlyFaulted(t, err, plans)
			if len(res.RoundLosses) != rounds {
				t.Fatalf("completed %d rounds, want %d", len(res.RoundLosses), rounds)
			}
			for _, loss := range res.RoundLosses {
				if math.IsNaN(loss) || math.IsInf(loss, 0) {
					t.Fatalf("non-finite round loss: %v", res.RoundLosses)
				}
			}
			if !tc.wantEvict {
				if len(res.Evictions) != 0 {
					t.Fatalf("expected no evictions, got %+v", res.Evictions)
				}
			} else {
				if len(res.Evictions) != 1 || res.Evictions[0].Client != faulty {
					t.Fatalf("expected exactly client %d evicted, got %+v", faulty, res.Evictions)
				}
				if res.Evictions[0].Round != tc.wantEvictRnd {
					t.Fatalf("evicted in round %d, want %d (%+v)", res.Evictions[0].Round, tc.wantEvictRnd, res.Evictions)
				}
				if tc.wantReason != "" && !strings.Contains(res.Evictions[0].Reason, tc.wantReason) {
					t.Fatalf("eviction reason %q does not mention %q", res.Evictions[0].Reason, tc.wantReason)
				}
			}
			// The telemetry layer must agree with the session result: the
			// eviction counter counts exactly the evicted clients, and the
			// round counter the completed rounds.
			if got := reg.Counter("rfl_evictions_total", "").Value(); got != int64(len(res.Evictions)) {
				t.Fatalf("eviction counter = %d, want %d", got, len(res.Evictions))
			}
			if got := reg.Counter("rfl_rounds_completed_total", "").Value(); got != int64(rounds) {
				t.Fatalf("round counter = %d, want %d", got, rounds)
			}
		})
	}
}

// onlyFaulted fails t when err — ServePipes' joined client errors — names a
// client plans does not fault: a healthy client must finish its session.
func onlyFaulted(t *testing.T, err error, plans map[int]FaultPlan) {
	t.Helper()
	if err == nil {
		return
	}
	for _, line := range strings.Split(err.Error(), "\n") {
		var id int
		if _, perr := fmt.Sscanf(line, "client %d:", &id); perr == nil {
			if _, faulted := plans[id]; !faulted {
				t.Errorf("healthy %s", line)
			}
		}
	}
}

// --- Rejoin: an evicted client reconnects and is re-admitted. ----------------

func TestServeRejoinAfterEviction(t *testing.T) {
	const clients = 3
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	rejoin := make(chan Conn, 1)
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        8,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		RoundDeadline: 5 * time.Second,
		Rejoin:        rejoin,
		Logf:          t.Logf,
	}

	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}

	var rejoinedFinal []float64
	var wg sync.WaitGroup
	for i := 0; i < clients-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(500 + i)
			if _, err := RunClient(clientConns[i], fx.shards[i], cfg); err != nil {
				t.Errorf("healthy client %d: %v", i, err)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := fx.ccfg
		cfg.Seed = 502
		// First life: crashes while receiving the round-1 assignment.
		fc := NewFaultConn(clientConns[2], FaultPlan{Seed: 7, DisconnectAfterOps: 5})
		if _, err := RunClient(fc, fx.shards[2], cfg); err == nil {
			t.Error("faulted client should have failed")
			return
		}
		// Second life: reconnect, hint the old slot, finish the session.
		sNew, cNew := Pipe()
		rejoin <- sNew
		cfg.ClientID = 2
		final, err := RunClient(cNew, fx.shards[2], cfg)
		if err != nil {
			t.Errorf("rejoined client: %v", err)
			return
		}
		rejoinedFinal = final
	}()

	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	if len(res.RoundLosses) != 8 {
		t.Fatalf("completed %d rounds, want 8", len(res.RoundLosses))
	}
	if res.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", res.Rejoins)
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Client != 2 {
		t.Fatalf("expected client 2 evicted once, got %+v", res.Evictions)
	}
	if len(rejoinedFinal) != len(res.FinalParams) {
		t.Fatalf("rejoined client got %d final params, want %d", len(rejoinedFinal), len(res.FinalParams))
	}
	for j := range rejoinedFinal {
		if rejoinedFinal[j] != res.FinalParams[j] {
			t.Fatal("rejoined client's final model differs from the server's")
		}
	}
}

// --- Quorum: rounds below MinClients retry, then the session aborts. ---------

func TestServeQuorumRetriesThenAborts(t *testing.T) {
	fx := newFixture(t, 2)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoFedAvg,
		Rounds:        4,
		InitialParams: net.GetFlat(),
		MinClients:    2,
	}

	s0, c0 := Pipe()
	s1, c1 := Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = RunClient(c0, fx.shards[0], fx.ccfg)
	}()
	go func() {
		defer wg.Done()
		// Joins, then dies on its first update: quorum of 2 is unreachable.
		fc := NewFaultConn(c1, FaultPlan{Seed: 3, DisconnectAfterOps: 2})
		cfg := fx.ccfg
		cfg.Seed = 600
		_, _ = RunClient(fc, fx.shards[1], cfg)
	}()

	_, err := Serve(scfg, []Conn{s0, s1})
	if err == nil {
		t.Fatal("session below quorum must abort after maxRoundRetries")
	}
	if !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("abort error should mention retry exhaustion: %v", err)
	}
	s0.Close()
	c0.Close()
	wg.Wait()
}

// --- Checkpoint: a killed server resumes and reaches the full round count. ---

func TestServeCheckpointKillResume(t *testing.T) {
	const clients = 3
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	ckptPath := t.TempDir() + "/round.ckpt"

	runClients := func(conns []Conn, plan *FaultPlan, seedBase int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cfg := fx.ccfg
				cfg.Seed = int64(seedBase + i)
				conn := conns[i]
				if plan != nil {
					p := *plan
					p.Seed = int64(i + 1)
					conn = NewFaultConn(conn, p)
				}
				_, _ = RunClient(conn, fx.shards[i], cfg)
			}(i)
		}
		return &wg
	}

	// Phase 1: every client crashes after 4 completed rounds (the server
	// process being killed looks the same from the protocol's viewpoint:
	// the session dies). The checkpoint of round 4 must survive on disk.
	scfg := ServerConfig{
		Algorithm:      AlgoRFedAvgPlus,
		Rounds:         6,
		InitialParams:  net.GetFlat(),
		FeatureDim:     net.FeatureDim,
		CheckpointPath: ckptPath,
	}
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}
	// 1 join + 4 ops per rFedAvg+ round: op 18 (round-4 assign) crashes.
	wg1 := runClients(clientConns, &FaultPlan{DisconnectAfterOps: 17}, 700)
	if _, err := Serve(scfg, serverConns); err == nil {
		t.Fatal("session with all clients dead should abort")
	}
	wg1.Wait()

	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("checkpoint must survive the kill: %v", err)
	}
	if ck.Round != 4 || len(ck.RoundLosses) != 4 {
		t.Fatalf("checkpoint at round %d with %d losses, want 4/4", ck.Round, len(ck.RoundLosses))
	}
	if len(ck.DeltaRows) != clients {
		t.Fatalf("checkpoint δ table has %d rows, want %d", len(ck.DeltaRows), clients)
	}

	// Phase 2: a fresh server resumes from the checkpoint with reconnected
	// clients and must reach the same round count as an unkilled session.
	scfg2 := scfg
	scfg2.Resume = ck
	serverConns2 := make([]Conn, clients)
	clientConns2 := make([]Conn, clients)
	for i := range serverConns2 {
		serverConns2[i], clientConns2[i] = Pipe()
	}
	wg2 := runClients(clientConns2, nil, 800)
	res, err := Serve(scfg2, serverConns2)
	if err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	wg2.Wait()
	if len(res.RoundLosses) != 6 {
		t.Fatalf("resumed session reached %d rounds, want 6 (4 checkpointed + 2 live)", len(res.RoundLosses))
	}
	for i, v := range ck.RoundLosses {
		if res.RoundLosses[i] != v {
			t.Fatal("resumed session must keep the checkpointed loss history")
		}
	}
}

// --- The 20-client chaos run: 30% of clients crash or straggle, and the -----
// --- session must still converge to within 10% of the fault-free run. -------

func TestChaosConvergence20Clients(t *testing.T) {
	const (
		clients = 20
		rounds  = 8
	)
	run := func(plans map[int]FaultPlan) *ServerResult {
		t.Helper()
		fx := newFixture(t, clients)
		net := fx.builder(fx.ccfg.ModelSeed)
		scfg := ServerConfig{
			Algorithm:     AlgoRFedAvgPlus,
			Rounds:        rounds,
			InitialParams: net.GetFlat(),
			FeatureDim:    net.FeatureDim,
			RoundDeadline: 5 * time.Second,
			MaxStaleness:  4,
		}
		seeded := func(i int) ClientConfig {
			cfg := fx.ccfg
			cfg.Seed = int64(900 + i)
			return cfg
		}
		res, err := ServePipes(scfg, fx.shards, seeded, plans)
		if res == nil {
			t.Fatalf("chaos session must complete: %v", err)
		}
		onlyFaulted(t, err, plans)
		return res
	}

	baseline := run(nil)
	if len(baseline.Evictions) != 0 {
		t.Fatalf("fault-free run evicted %+v", baseline.Evictions)
	}

	// 6 of 20 clients (30%) misbehave: three crash in different rounds,
	// three straggle with injected delays that stay under the deadline.
	slow := FaultPlan{DelayProb: 0.4, MinDelay: time.Millisecond, MaxDelay: 15 * time.Millisecond}
	plans := map[int]FaultPlan{
		2:  {Seed: 2, DisconnectAfterOps: 5},   // dies entering round 1
		5:  {Seed: 5, DisconnectAfterOps: 9},   // dies entering round 2
		11: {Seed: 11, DisconnectAfterOps: 13}, // dies entering round 3
		7:  {Seed: 7, DelayProb: slow.DelayProb, MinDelay: slow.MinDelay, MaxDelay: slow.MaxDelay},
		13: {Seed: 13, DelayProb: slow.DelayProb, MinDelay: slow.MinDelay, MaxDelay: slow.MaxDelay},
		17: {Seed: 17, DelayProb: slow.DelayProb, MinDelay: slow.MinDelay, MaxDelay: slow.MaxDelay},
	}
	faulty := run(plans)

	if len(faulty.RoundLosses) != rounds {
		t.Fatalf("chaos run completed %d rounds, want %d", len(faulty.RoundLosses), rounds)
	}
	if len(faulty.Evictions) != 3 {
		t.Fatalf("expected the 3 crashers evicted (and only them), got %+v", faulty.Evictions)
	}
	for _, ev := range faulty.Evictions {
		if ev.Client != 2 && ev.Client != 5 && ev.Client != 11 {
			t.Fatalf("evicted a client without a crash schedule: %+v", ev)
		}
	}

	b := baseline.RoundLosses[rounds-1]
	f := faulty.RoundLosses[rounds-1]
	t.Logf("final loss: fault-free %.4f, 30%%-chaos %.4f", b, f)
	if math.Abs(f-b) > 0.10*b {
		t.Fatalf("chaos run diverged: final loss %.4f vs fault-free %.4f (> 10%%)", f, b)
	}
	// Both runs must actually have learned.
	if f >= faulty.RoundLosses[0] || b >= baseline.RoundLosses[0] {
		t.Fatalf("losses did not decrease: baseline %v, faulty %v", baseline.RoundLosses, faulty.RoundLosses)
	}
}

// --- Telemetry: a chaos session's registry, scraped over HTTP like a
// --- Prometheus agent would, exposes the per-phase histograms and fault
// --- counters that match the session result.

func TestChaosSessionMetricsScrape(t *testing.T) {
	const clients, rounds = 3, 3
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	reg := telemetry.NewRegistry()
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		RoundDeadline: 5 * time.Second,
		Metrics:       reg,
	}
	seeded := func(i int) ClientConfig {
		cfg := fx.ccfg
		cfg.Seed = int64(500 + i)
		return cfg
	}
	// Client 2 dies sending its round-0 update.
	res, err := ServePipes(scfg, fx.shards, seeded, map[int]FaultPlan{2: {Seed: 1, DisconnectAfterOps: 2}})
	if res == nil {
		t.Fatalf("serve: %v", err)
	}
	if len(res.Evictions) != 1 {
		t.Fatalf("expected 1 eviction, got %+v", res.Evictions)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`rfl_phase_seconds_bucket{phase="join"`,
		`rfl_phase_seconds_bucket{phase="prepare"`,
		`rfl_phase_seconds_bucket{phase="broadcast"`,
		`rfl_phase_seconds_bucket{phase="gather"`,
		`rfl_phase_seconds_bucket{phase="validate"`,
		`rfl_phase_seconds_bucket{phase="close"`,
		`rfl_phase_seconds_bucket{phase="delta_sync"`,
		`rfl_phase_seconds_bucket{phase="age"`,
		`rfl_phase_seconds_count{phase="age"} 3`,
		`rfl_round_seconds_count 3`,
		`rfl_rounds_completed_total 3`,
		`rfl_evictions_total 1`,
		`rfl_round_retries_total`,
		`rfl_bytes_sent_total{algo="rfedavg+"}`,
		`rfl_bytes_received_total{algo="rfedavg+"}`,
		`rfl_delta_staleness_age_bucket`,
		`rfl_delta_stale_rows`,
		`rfl_rejoins_total`,
		`rfl_model_elided_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", body)
	}
	// The live-wire byte series must be nonzero: every broadcast shipped
	// the full parameter vector.
	if !regexpMatchNonzero(body, `rfl_bytes_sent_total{algo="rfedavg+"} `) {
		t.Fatalf("bytes-sent series is zero:\n%s", body)
	}
}

// regexpMatchNonzero reports whether the series line starting with prefix
// carries a value other than "0".
func regexpMatchNonzero(body, prefix string) bool {
	i := strings.Index(body, prefix)
	if i < 0 {
		return false
	}
	rest := body[i+len(prefix):]
	if j := strings.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strings.TrimSpace(rest) != "0"
}
