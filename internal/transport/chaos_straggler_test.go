package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// TestAsyncStragglerMatrix is the headline robustness claim for buffered
// aggregation: under a seeded persistent straggler, a synchronous session's
// per-round wall clock degrades by the injected delay every round, while an
// async session (BufferK one short of the fleet, adaptive deadline on)
// stays within ~1.2× the fault-free baseline — the straggler's updates
// arrive late and fold in with a staleness discount instead of gating the
// round.
//
// The matrix is measured, not assumed: a fault-free run calibrates the
// baseline round time, the straggler delay is derived from it, and the
// per-round durations come from the run ledger.
func TestAsyncStragglerMatrix(t *testing.T) {
	const (
		clients   = 6
		rounds    = 8
		straggler = 4
		// Every client pays a small per-op pacing latency in every run
		// (including the baseline), so rounds have a wall-clock floor and
		// the async session is still running when the straggler's late
		// update finally lands.
		pace = 30 * time.Millisecond
	)
	fx := newFixture(t, clients)
	pacedPlans := func(stragglerDelay time.Duration) map[int]FaultPlan {
		plans := map[int]FaultPlan{}
		for i := 0; i < clients; i++ {
			plans[i] = FaultPlan{StragglerDelay: pace}
		}
		if stragglerDelay > 0 {
			plans[straggler] = FaultPlan{StragglerDelay: stragglerDelay}
		}
		return plans
	}

	run := func(plans map[int]FaultPlan, shape func(*ServerConfig)) []traceview.LedgerLine {
		t.Helper()
		net := fx.builder(fx.ccfg.ModelSeed)
		var buf bytes.Buffer
		scfg := ServerConfig{
			Algorithm:     AlgoFedAvg,
			Rounds:        rounds,
			InitialParams: net.GetFlat(),
			FeatureDim:    net.FeatureDim,
			Seed:          5,
			RoundDeadline: 10 * time.Second,
			Metrics:       telemetry.NewRegistry(),
			Ledger:        telemetry.NewRunLedger(&buf),
		}
		if shape != nil {
			shape(&scfg)
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
				cfg.Seed = int64(300 + i)
				conn := clientConns[i]
				if plan, ok := plans[i]; ok {
					conn = NewFaultConn(conn, plan)
				}
				if _, err := RunClient(conn, fx.shards[i], cfg); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}(i)
		}
		if _, err := Serve(scfg, serverConns); err != nil {
			t.Fatalf("serve: %v", err)
		}
		wg.Wait()
		lines, err := traceview.ReadLedger(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ledger: %v", err)
		}
		return lines
	}
	meanRound := func(lines []traceview.LedgerLine) time.Duration {
		var sum time.Duration
		n := 0
		for i := range lines {
			if lines[i].OK {
				sum += time.Duration(lines[i].DurNS)
				n++
			}
		}
		if n == 0 {
			t.Fatal("no successful rounds in ledger")
		}
		return sum / time.Duration(n)
	}

	// Calibrate: straggler-free synchronous baseline (with pacing).
	base := meanRound(run(pacedPlans(0), nil))

	// The straggler is decisively slower than a round — at least 2× the
	// baseline and no less than 150ms per op — but bounded so its update
	// still arrives within the async session's lifetime.
	delay := 2 * base
	if delay < 150*time.Millisecond {
		delay = 150 * time.Millisecond
	}
	plans := pacedPlans(delay)

	syncMean := meanRound(run(plans, nil))

	asyncLines := run(plans, func(c *ServerConfig) {
		c.BufferK = clients - 1
		c.StalenessLambda = 0.5
		c.MinClients = clients / 2
		c.AdaptiveDeadline = true
		c.RoundDeadline = 16 * time.Second // the controller's floor, 16s/8, is 2s
	})
	asyncMean := meanRound(asyncLines)

	t.Logf("round wall clock: fault-free %v, sync+straggler %v, async+straggler %v (delay %v)",
		base, syncMean, asyncMean, delay)

	// Sync degrades: every round waits out the straggler's delayed ops
	// (broadcast receive + update send ≥ one full delay per round).
	if syncMean < base+delay {
		t.Fatalf("sync round %v did not degrade under a %v straggler (baseline %v) — the async comparison below is vacuous",
			syncMean, delay, base)
	}
	// Async holds: rounds close at BufferK fresh arrivals, so the straggler
	// costs buffer bookkeeping, not wall clock. The grace term absorbs
	// scheduler jitter at millisecond-scale baselines.
	budget := base + base/5 + delay/4
	if asyncMean > budget {
		t.Fatalf("async round %v exceeds 1.2× fault-free %v (+%v grace): the straggler gated the round",
			asyncMean, base, delay/4)
	}
	// And the straggler's work was folded, not dropped: at least one round
	// attributes a late fold to it.
	folded := false
	for i := range asyncLines {
		for _, id := range asyncLines[i].LateID {
			if id == straggler {
				folded = true
			}
		}
	}
	if !folded {
		t.Fatal("no round folded the straggler's late update; its work was lost")
	}
}
