package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// clockedLedger is a ledger sink that notes the session's virtual clock as
// each round line is written, at the end of a round attempt; at[i] belongs
// to the i-th round line. Event lines, such as run_start, are not clocked.
type clockedLedger struct {
	bytes.Buffer
	clock *time.Duration
	at    []time.Duration
}

func (w *clockedLedger) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"kind":"round"`)) {
		w.at = append(w.at, *w.clock)
	}
	return w.Buffer.Write(p)
}

// TestAsyncStragglerMatrix is the headline robustness claim for buffered
// aggregation: under a seeded persistent straggler, a synchronous session's
// rounds degrade by the injected delay, while an async session (BufferK one
// short of the fleet, adaptive deadline on) stays within 1.2× the fault-free
// baseline — the straggler's updates arrive late and fold in with a
// staleness discount instead of gating the round.
//
// The sessions run in virtual time, so the round times are exact, not
// sampled: a round takes the clock's advance from the ledger line before it
// to its own. Every client's send and receive takes pace, the straggler's
// delay.
func TestAsyncStragglerMatrix(t *testing.T) {
	const (
		clients   = 6
		rounds    = 8
		straggler = 4
		pace      = 30 * time.Millisecond
		delay     = 150 * time.Millisecond
	)
	fx := newFixture(t, clients)

	run := func(stragglerDelay time.Duration, shape func(*ServerConfig)) (time.Duration, []traceview.LedgerLine) {
		t.Helper()
		plans := map[int]FaultPlan{}
		for i := 0; i < clients; i++ {
			plans[i] = FaultPlan{StragglerDelay: pace}
		}
		if stragglerDelay > 0 {
			plans[straggler] = FaultPlan{StragglerDelay: stragglerDelay}
		}
		net := fx.builder(fx.ccfg.ModelSeed)
		ledger := &clockedLedger{clock: new(time.Duration)}
		scfg := ServerConfig{
			Algorithm:     AlgoFedAvg,
			Rounds:        rounds,
			InitialParams: net.GetFlat(),
			FeatureDim:    net.FeatureDim,
			Seed:          5,
			RoundDeadline: 10 * time.Second,
			Metrics:       telemetry.NewRegistry(),
			Ledger:        telemetry.NewRunLedger(ledger),
			clock:         ledger.clock,
		}
		if shape != nil {
			shape(&scfg)
		}
		seeded := func(i int) ClientConfig {
			cfg := fx.ccfg
			cfg.Seed, cfg.LocalSteps = int64(300+i), 1
			return cfg
		}
		if _, err := ServePipes(scfg, fx.shards, seeded, plans); err != nil {
			t.Fatalf("serve: %v", err)
		}
		lines := readLedger(t, bytes.NewBuffer(ledger.Bytes()))
		var sum time.Duration
		n := 0
		for i := 1; i < len(lines); i++ {
			if lines[i].OK {
				sum += ledger.at[i] - ledger.at[i-1]
				n++
			}
		}
		if n == 0 {
			t.Fatal("no successful rounds in ledger")
		}
		return sum / time.Duration(n), lines
	}

	base, _ := run(0, nil)
	syncMean, _ := run(delay, nil)
	asyncMean, asyncLines := run(delay, func(c *ServerConfig) {
		c.BufferK = clients - 1
		c.StalenessLambda = 0.5
		c.MinClients = clients / 2
		c.AdaptiveDeadline = true
		c.RoundDeadline = 16 * time.Second // the controller's floor, 16s/8, is 2s
	})
	t.Logf("virtual round time: fault-free %v, sync+straggler %v, async+straggler %v (delay %v)",
		base, syncMean, asyncMean, delay)

	// Sync degrades: every round waits out the straggler's delayed ops
	// (broadcast receive + update send ≥ one full delay per round).
	if syncMean < base+delay {
		t.Fatalf("sync round %v did not degrade under a %v straggler (baseline %v) — the async comparison below is vacuous",
			syncMean, delay, base)
	}
	// Async holds: rounds close at BufferK fresh arrivals, so the straggler
	// costs buffer bookkeeping, not round time.
	if asyncMean > base+base/5 {
		t.Fatalf("async round %v exceeds 1.2× fault-free %v: the straggler gated the round", asyncMean, base)
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
