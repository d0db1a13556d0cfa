package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/fl"
	"repro/internal/telemetry"
)

// fixedSampler samples the same clients every round.
type fixedSampler []int

func (fixedSampler) Name() string                       { return "fixed" }
func (s fixedSampler) Sample(*fl.Federation, int) []int { return s }

// The simulator validates like the server: a client reporting ±Inf/NaN in
// every parameter (Byzantine{Scale: +Inf}) is left out of the aggregate with
// one invalid_update event a round, where the parent averaged it in and the
// global went NaN for good. The other three clients' weights renormalise to 1:
// every round's global is, to the bit, that of a federation which samples
// only those three.
func TestNonFiniteUpdateLeftOut(t *testing.T) {
	const rounds, attacker = 4, 1
	for name, mk := range map[string]func() fl.Algorithm{
		"FedAvg":   func() fl.Algorithm { return fl.NewFedAvg() },
		"rFedAvg+": func() fl.Algorithm { return NewRFedAvgPlus(1e-3) },
	} {
		t.Run(name, func(t *testing.T) {
			var events bytes.Buffer
			attacked := tinyFederation(t, 4, 0.0)
			attacked.Cfg.Byzantine = map[int]fl.Byzantine{attacker: {Scale: math.Inf(1)}}
			attacked.Cfg.Ledger = telemetry.NewRunLedger(&events)
			honest := tinyFederation(t, 4, 0.0)
			honest.Cfg.Sampler = fixedSampler{0, 2, 3}

			a, h := mk(), mk()
			a.Setup(attacked)
			h.Setup(honest)
			for r := 0; r < rounds; r++ {
				res := a.Round(r, attacked.SampleClients(r))
				want := h.Round(r, honest.SampleClients(r))
				if !engine.Finite(a.GlobalParams()) || math.IsNaN(res.TrainLoss) {
					t.Fatalf("round %d: global or loss not finite (loss %v)", r, res.TrainLoss)
				}
				if _, in := res.ClientLosses[attacker]; in || len(res.ClientLosses) != 3 {
					t.Fatalf("round %d: aggregated clients %v, want 0, 2, 3", r, res.ClientLosses)
				}
				if res.TrainLoss != want.TrainLoss {
					t.Fatalf("round %d: loss %v, three-client federation %v", r, res.TrainLoss, want.TrainLoss)
				}
				for j, w := range h.GlobalParams() {
					if a.GlobalParams()[j] != w {
						t.Fatalf("round %d: param %d = %v, three-client federation %v", r, j, a.GlobalParams()[j], w)
					}
				}
			}
			lines := strings.Split(strings.TrimSpace(events.String()), "\n")
			if len(lines) != rounds {
				t.Fatalf("%d events, want one a round:\n%s", len(lines), events.String())
			}
			for r, line := range lines {
				for _, want := range []string{`"event":"invalid_update"`, fmt.Sprintf(`"round":%d`, r), fmt.Sprintf("client %d: non-finite update", attacker)} {
					if !strings.Contains(line, want) {
						t.Fatalf("event %d lacks %s: %s", r, want, line)
					}
				}
			}
		})
	}
}

// A round in which nothing valid reports keeps the previous global and
// reports a NaN loss — the simulator's failed attempt.
func TestRoundWithNothingValidKeepsGlobal(t *testing.T) {
	f := tinyFederation(t, 2, 1.0)
	f.Cfg.Byzantine = map[int]fl.Byzantine{0: {Scale: math.Inf(1)}, 1: {Scale: math.Inf(1), SignFlip: true}}
	a := NewRFedAvgPlus(1e-3)
	a.Setup(f)
	before := append([]float64(nil), a.GlobalParams()...)
	res := a.Round(0, f.SampleClients(0))
	if !math.IsNaN(res.TrainLoss) {
		t.Fatalf("loss %v, want NaN", res.TrainLoss)
	}
	for j, w := range before {
		if a.GlobalParams()[j] != w {
			t.Fatalf("param %d moved: %v → %v", j, w, a.GlobalParams()[j])
		}
	}
}

// oneWorker rebuilds f over the same shards with a single worker, so clients
// train — and call their hooks — in sampled order.
func oneWorker(f *fl.Federation) *fl.Federation {
	cfg := f.Cfg
	cfg.Workers = 1
	shards := make([]*data.Dataset, len(f.Clients))
	for k, c := range f.Clients {
		shards[k] = c.Data
	}
	return fl.NewFederation(cfg, shards, f.Test)
}

// A non-finite δ map goes through the server's gate (DeltaTable.Accept) in the
// simulator too: it is refused with one invalid_delta event and its row keeps
// the previous map. Stored, the NaN would reach the other clients' targets and
// leave round 1 with 2 of 4 valid updates.
func TestNonFiniteDeltaRefused(t *testing.T) {
	const rounds = 3
	type tabled interface {
		fl.Algorithm
		Table() *DeltaTable
	}
	for name, mk := range map[string]func(noise func([]float64, *rand.Rand)) tabled{
		"rFedAvg": func(noise func([]float64, *rand.Rand)) tabled {
			a := NewRFedAvg(1e-3)
			a.NoiseDelta = noise
			return a
		},
		"rFedAvg+": func(noise func([]float64, *rand.Rand)) tabled {
			a := NewRFedAvgPlus(1e-3)
			a.NoiseDelta = noise
			return a
		},
	} {
		t.Run(name, func(t *testing.T) {
			calls := 0
			a := mk(func(delta []float64, _ *rand.Rand) {
				if calls++; calls == 1 {
					delta[0] = math.NaN()
				}
			})
			var events bytes.Buffer
			f := oneWorker(tinyFederation(t, 4, 0.0))
			f.Cfg.Ledger = telemetry.NewRunLedger(&events)
			a.Setup(f)
			table := a.Table()
			before := append([]float64(nil), table.Get(0)...)
			for r := 0; r < rounds; r++ {
				res := a.Round(r, f.SampleClients(r))
				if len(res.ClientLosses) != 4 || math.IsNaN(res.TrainLoss) {
					t.Fatalf("round %d aggregated %d of 4 (loss %v)", r, len(res.ClientLosses), res.TrainLoss)
				}
				if r == 0 {
					for i, v := range table.Get(0) {
						if v != before[i] {
							t.Fatalf("refused map changed row 0: %v → %v", before, table.Get(0))
						}
					}
				}
			}
			lines := strings.Split(strings.TrimSpace(events.String()), "\n")
			if len(lines) != 1 {
				t.Fatalf("%d events, want one:\n%s", len(lines), events.String())
			}
			for _, want := range []string{`"event":"invalid_delta"`, `"round":0`, "client 0: non-finite δ map"} {
				if !strings.Contains(lines[0], want) {
					t.Fatalf("event lacks %s: %s", want, lines[0])
				}
			}
		})
	}
}
