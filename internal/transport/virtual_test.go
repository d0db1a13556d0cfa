package transport

import (
	"bytes"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// straggling is the -slow of the buffered virtual sessions below: clients 4
// and 5 take six times as long per send and receive as the rest.
var straggling = []float64{1, 1, 1, 1, 6, 6}

// virtualFederation is a federation over the fixture's shards, seeded 3, of
// one local step a round, writing its ledger to ledger and feeding h (either
// may be nil).
func virtualFederation(fx *federatedFixture, ledger *bytes.Buffer, h *health.Monitor) *fl.Federation {
	c := fx.ccfg
	cfg := fl.Config{Builder: c.Builder, ModelSeed: c.ModelSeed, Seed: 3, LocalSteps: 1,
		BatchSize: c.BatchSize, LR: c.LR, Health: h}
	if ledger != nil {
		cfg.Ledger = telemetry.NewRunLedger(ledger)
	}
	return fl.NewFederation(cfg, fx.shards, fx.test)
}

// runVirtual runs f as a buffered ServeFederation session of algo under the
// straggling latencies.
func runVirtual(t *testing.T, fx *federatedFixture, f *fl.Federation, algo Algorithm, rounds, bufferK int) *ServerResult {
	t.Helper()
	cfg := ServerConfig{Algorithm: algo, Rounds: rounds, BufferK: bufferK, StalenessLambda: 0.5, Metrics: telemetry.NewRegistry()}
	res, err := ServeFederation(f, cfg, fx.ccfg.Lambda, false, straggling)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// readLedger decodes a session's ledger.
func readLedger(t *testing.T, buf *bytes.Buffer) []traceview.LedgerLine {
	t.Helper()
	lines, err := traceview.ReadLedger(buf)
	if err != nil {
		t.Fatal(err)
	}
	return lines
}

// A buffered session in virtual time replays bit for bit: who makes each
// round's buffer and when a straggler's update folds are decided by the
// frames' stamps, not by the scheduler. The stragglers fold at whatever age
// they land, two rounds or more.
func TestAsyncVirtualReplays(t *testing.T) {
	const runs = 20
	fx := newFixture(t, 6)
	var ledger bytes.Buffer
	first := sessionHash(runVirtual(t, fx, virtualFederation(fx, &ledger, nil), AlgoRFedAvgPlus, 8, 3))
	late := false
	for _, l := range readLedger(t, &ledger) {
		for j, id := range l.LateID {
			late = late || id >= 4 && l.LateAge[j] >= 2
		}
	}
	if !late {
		t.Errorf("no round folded client 4 or 5 at age ≥ 2:\n%s", ledger.String())
	}
	for run := 1; run < runs; run++ {
		if got := sessionHash(runVirtual(t, fx, virtualFederation(fx, nil, nil), AlgoRFedAvgPlus, 8, 3)); got != first {
			t.Fatalf("run %d hashes to %s, run 0 to %s", run, got, first)
		}
	}
}

// A virtual session is the real protocol with time made an input: at
// BufferK 0, and at a BufferK that covers the cohort, it ends bit for bit
// where a live session of the same configuration over real pipes does. This
// is what keeps flsim's -compress, extwire and the efficient-uplink example
// where they were before ServeFederation went virtual.
func TestAsyncVirtualSyncMatchesPipes(t *testing.T) {
	const rounds = 5
	fx := newFixture(t, 6)
	f := virtualFederation(fx, nil, nil)
	f.Cfg.SampleRatio = 0.5
	codec := CodecPolicy{Update: compress.SchemeInt8, Delta: compress.SchemeInt8}
	client := func(i int) ClientConfig {
		c := fx.ccfg
		c.Seed, c.LocalSteps, c.ErrorFeedback = f.Cfg.Seed*1000+int64(i), f.Cfg.LocalSteps, true
		return c
	}
	want, err := serveLive(t, ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: f.InitialParams(), FeatureDim: f.FeatureDim(),
		SampleRatio: 0.5, Seed: f.Cfg.Seed, Codec: codec, Metrics: telemetry.NewRegistry(),
	}, fx.shards, client, nil, Pipe)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 3} {
		cfg := ServerConfig{Algorithm: AlgoRFedAvgPlus, Rounds: rounds, Codec: codec, BufferK: k, StalenessLambda: 0.5, Metrics: telemetry.NewRegistry()}
		got, err := ServeFederation(f, cfg, fx.ccfg.Lambda, true, straggling)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCohorts(got.Cohorts, want.Cohorts) || got.UpBytes != want.UpBytes || got.DownBytes != want.DownBytes {
			t.Fatalf("BufferK %d: cohorts %v, bytes %d/%d; live %v, %d/%d",
				k, got.Cohorts, got.UpBytes, got.DownBytes, want.Cohorts, want.UpBytes, want.DownBytes)
		}
		for i, l := range want.RoundLosses {
			if math.Float64bits(got.RoundLosses[i]) != math.Float64bits(l) {
				t.Fatalf("BufferK %d: round %d loss %v, live %v", k, i, got.RoundLosses[i], l)
			}
		}
		if hashFloats(got.FinalParams) != hashFloats(want.FinalParams) {
			t.Fatalf("BufferK %d: final model differs from the live session's", k)
		}
	}
}

// The health monitor is fed what a round aggregates: a buffered round's
// stragglers are scored when their update folds, not when they trained. Round
// 0 scores exactly its fresh clients, and a parked client is credited in the
// round that folds it — a virtual session's first r rounds are those of any
// longer one, so the monitor is read after the rounds before that one and
// after that one.
func TestAsyncHealthFeedsAggregatedOnly(t *testing.T) {
	fx := newFixture(t, 6)
	run := func(rounds int) (*health.Monitor, []traceview.LedgerLine) {
		var ledger bytes.Buffer
		h := health.New(health.Config{Registry: telemetry.NewRegistry()})
		runVirtual(t, fx, virtualFederation(fx, &ledger, h), AlgoFedAvg, rounds, 3)
		return h, readLedger(t, &ledger)
	}
	h, lines := run(1)
	var scored []int
	h.CohortScores(func(id int, _ float64) { scored = append(scored, id) })
	slices.Sort(scored)
	fresh := slices.Clone(lines[0].ClientID)
	slices.Sort(fresh)
	if len(fresh) != 3 || !slices.Equal(scored, fresh) {
		t.Fatalf("round 0 aggregated %v, health scored %v; want the 3 fresh clients", fresh, scored)
	}

	_, lines = run(8)
	round, id := -1, -1
	for _, l := range lines {
		for _, c := range l.LateID {
			if c >= 4 && round < 0 {
				round, id = l.Round, c
			}
		}
	}
	if round < 0 {
		t.Fatal("no round folded client 4 or 5")
	}
	folds := func(h *health.Monitor) int {
		for _, c := range h.Snapshot(0).Clients {
			if c.ID == id {
				return c.Folds
			}
		}
		return 0
	}
	before, _ := run(round)
	at, _ := run(round + 1)
	if folds(before) != 0 || folds(at) != 1 {
		t.Fatalf("client %d folds in round %d: credited %d times before it, %d through it; want 0 and 1",
			id, round, folds(before), folds(at))
	}
}

// stragglingPlans delays every send and receive of client k by U(0.5,
// 1.5]·straggling[k] s of virtual time.
func stragglingPlans() map[int]FaultPlan {
	plans := make(map[int]FaultPlan, len(straggling))
	for k, slow := range straggling {
		s := float64(time.Second) * slow
		plans[k] = FaultPlan{Seed: int64(k), DelayProb: 1, MinDelay: time.Duration(0.5 * s), MaxDelay: time.Duration(1.5 * s)}
	}
	return plans
}

// sessionHash hashes a session's round losses and final model.
func sessionHash(res *ServerResult) string {
	return hashFloats(append(slices.Clone(res.RoundLosses), res.FinalParams...))
}

// rejoiner queues one rejoiner on scfg.Rejoin and closes it: the server end
// of a virtual pipe on scfg's clock (made here if scfg has none), with cfg's
// RunClient on the client end behind plan. wait, called once the session is
// over, closes the server end and returns what RunClient returned.
func rejoiner(scfg *ServerConfig, shard *data.Dataset, cfg ClientConfig, plan FaultPlan) (wait func() ([]float64, error)) {
	if scfg.clock == nil {
		scfg.clock = new(time.Duration)
	}
	server, client := newPipe(scfg.clock)
	rejoin := make(chan Conn, 1)
	rejoin <- server
	close(rejoin)
	scfg.Rejoin = rejoin
	var final []float64
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		final, err = RunClient(NewFaultConn(client, plan), shard, cfg)
	}()
	return func() ([]float64, error) {
		server.Close()
		<-done
		return final, err
	}
}

// A deadline in virtual time is an event in stamp order, and so is a
// rejoiner's handshake, so a session with deadlines and a rejoin replays bit
// for bit: six clients, two of them at six times the others' latency against
// a 5 s deadline, and a rejoiner at the others' latency for slot 5, which
// the deadline evicts from the join, evict the same clients in the same
// rounds for the same reasons, re-admit the rejoiner once and end on the same
// losses and model in every run, under the fixed deadline and the adaptive
// one.
func TestVirtualDeadlinesReplay(t *testing.T) {
	const runs, rounds = 20, 4
	fx := newFixture(t, 6)
	net := fx.builder(fx.ccfg.ModelSeed)
	plans := stragglingPlans()
	client := func(i int) ClientConfig {
		c := fx.client(i)
		c.LocalSteps = 1
		return c
	}
	second := client(5) // slot 5's second life
	second.ClientID = 5
	for _, adaptive := range []bool{false, true} {
		var first []Eviction
		var firstHash string
		for run := 0; run < runs; run++ {
			scfg := ServerConfig{
				Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
				RoundDeadline: 5 * time.Second, AdaptiveDeadline: adaptive, Metrics: telemetry.NewRegistry(),
			}
			wait := rejoiner(&scfg, fx.shards[5], second, plans[0])
			res, err := ServePipes(scfg, fx.shards, client, plans)
			wait()
			if res == nil {
				t.Fatalf("adaptive %v, run %d: %v", adaptive, run, err)
			}
			onlyFaulted(t, err, plans)
			if res.Rejoins != 1 {
				t.Fatalf("adaptive %v, run %d: %d rejoins, want 1", adaptive, run, res.Rejoins)
			}
			h := sessionHash(res)
			if run == 0 {
				first, firstHash = res.Evictions, h
				t.Logf("adaptive %v: evictions %+v", adaptive, first)
				if !slices.ContainsFunc(first, func(e Eviction) bool { return e.Client >= 4 && strings.Contains(e.Reason, ErrTimeout.Error()) }) {
					t.Fatalf("adaptive %v: no slow client was evicted at a deadline: %+v", adaptive, first)
				}
				continue
			}
			if !slices.Equal(res.Evictions, first) || h != firstHash {
				t.Fatalf("adaptive %v, run %d: evictions %+v, hash %s; run 0: %+v, %s", adaptive, run, res.Evictions, h, first, firstHash)
			}
		}
	}

	// A phase whose deadline never fired leaves none behind: after the join,
	// whose 5 s deadline did not fire, the boundary drain still handles an
	// arrival stamped past it — a conn error — and reaps its slot.
	clock := time.Duration(0)
	s, _ := pipeSession(t, 2, func(c *ServerConfig) { c.RoundDeadline, c.clock = 5*time.Second, &clock })
	clock = 7 * time.Second
	s.ahead = append(s.ahead, arrival{p: s.conns[1], err: io.EOF, at: 6 * time.Second})
	s.boundary(0)
	if ev := s.res.Evictions; len(ev) != 1 || ev[0].Client != 1 || !strings.Contains(ev[0].Reason, "peer gone") {
		t.Fatalf("evictions %+v, want slot 1's dead peer reaped at the boundary", ev)
	}
}

// The stamp rides on the frame, not on the conn's type: a virtual session
// whose server ends are wrapped (in a frame log) handles its arrivals and
// deadlines in the order the bare session does, and ends on the same
// evictions, losses and model.
func TestVirtualWrappedServerEnds(t *testing.T) {
	fx := newFixture(t, len(straggling))
	run := func(server func(int, Conn) Conn) *ServerResult {
		return elideRun{algo: AlgoRFedAvgPlus, server: server, plans: stragglingPlans(), mayFail: map[int]bool{4: true, 5: true},
			shape: func(c *ServerConfig) { c.Rounds, c.RoundDeadline, c.clock = 4, 5*time.Second, new(time.Duration) }}.run(t, fx)
	}
	var log frameLog
	bare, wrapped := run(nil), run(log.wrap)
	if !slices.ContainsFunc(bare.Evictions, func(e Eviction) bool { return strings.Contains(e.Reason, ErrTimeout.Error()) }) {
		t.Fatalf("no client was evicted at a deadline: %+v", bare.Evictions)
	}
	if !slices.Equal(wrapped.Evictions, bare.Evictions) || sessionHash(wrapped) != sessionHash(bare) {
		t.Fatalf("wrapped: evictions %+v, hash %s; bare: %+v, %s", wrapped.Evictions, sessionHash(wrapped), bare.Evictions, sessionHash(bare))
	}
}
