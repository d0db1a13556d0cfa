package core

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/fl"
	"repro/internal/telemetry"
)

// RFedAvgPlus implements Algorithm 2 of the paper. It fixes rFedAvg's two
// shortcomings with a *double synchronization* per round:
//
//  1. Clients train against the precomputed average map
//     δ̄^{-k} = (1/(N-1))·Σ_{j≠k} δ^j — the server ships O(d) per client
//     instead of the O(N·d) table, cutting total communication from
//     O(dN²) to O(dN). The corresponding objective r̃_k = ‖δ^k - δ̄^{-k}‖²
//     has the same gradient as the pairwise r_k and lower-bounds it.
//  2. After aggregation the server sends the *new global* model back, and
//     every client recomputes its map with that consistent model — so the
//     delayed maps of the next round all come from one set of parameters,
//     which is what makes the constant C₂ in Theorem 1 smaller than
//     rFedAvg's C₃ in Theorem 2.
type RFedAvgPlus struct {
	// Lambda is the regularization weight λ.
	Lambda float64
	// NoiseDelta, if non-nil, perturbs a client's map in place before it is
	// sent to the server (privacy evaluation, Fig. 12).
	NoiseDelta func(delta []float64, rng *rand.Rand)
	// MaxStale bounds δ staleness under partial participation: a client
	// unsampled (or, in the transport deployment, evicted) for more than
	// MaxStale rounds has its row excluded from the δ̄^{-k} targets until
	// it is refreshed. 0 keeps every row forever (Algorithm 2 verbatim).
	MaxStale int

	fl.Base
	table *DeltaTable
	// fresh is who the round just closed aggregated, left by the server half
	// for the second synchronization; each round refills it in place.
	fresh []int
	// held says which clients need not download the next round's model:
	// the second synchronization already delivered it.
	held engine.Held
}

// NewRFedAvgPlus creates Algorithm 2 with regularization weight λ.
func NewRFedAvgPlus(lambda float64) *RFedAvgPlus { return &RFedAvgPlus{Lambda: lambda} }

// Name returns "rFedAvg+".
func (a *RFedAvgPlus) Name() string { return "rFedAvg+" }

// Setup initializes the global model and the zero table and binds both halves;
// the average map δ̄^{-k} travels down beside the model.
func (a *RFedAvgPlus) Setup(f *fl.Federation) {
	n, d := len(f.Clients), f.FeatureDim()
	a.Init(f, fl.Method{Local: a.local, Server: a.server, AuxDown: d})
	a.table = NewServerTable(n, d, a.MaxStale)
	a.held = make(engine.Held, n)
}

// Table exposes the server's δ table (read-only use in tests/experiments).
func (a *RFedAvgPlus) Table() *DeltaTable { return a.table }

// MMDTable implements fl.MMDReporter over the server's δ table.
func (a *RFedAvgPlus) MMDTable() engine.MMDTable { return a.table }

// local is the first communication's client side: E steps against δ̄^{-k}.
// The wire ships only δ̄^{-k} (lines 17–18 of Algorithm 2): O(d) per sampled
// client, not the O(N·d) table. The simulation computes it here on demand —
// the table is unmutated since last round's Tick, so this reads the same state
// an end-of-round precompute would, and only for the sampled cohort.
func (a *RFedAvgPlus) local(round int, w *fl.Worker, c *fl.Client, rng *rand.Rand) (float64, []float64) {
	f := a.F
	target := a.table.MeanExcludingInto(w.Arena().Tensor("reg.target", f.FeatureDim()).Data, c.ID)
	o := f.DefaultLocalOpts(round)
	o.FeatGrad = RegTerm(w.Arena(), target, a.Lambda)
	return f.LocalTrain(w, c, rng, o), nil
}

// server keeps the mean and notes who reported.
func (a *RFedAvgPlus) server(_ int, _, mean []float64, agg []fl.ClientOut) []float64 {
	for _, o := range agg {
		a.fresh = append(a.fresh, o.Client.ID)
	}
	return mean
}

// Round runs one rFedAvg+ communication round (lines 4–18 of Algorithm 2): the
// shared round is the first communication — w_cE and δ̄^{-k} down, local
// training, w back up, aggregation — and the second (lines 13–16) follows it:
// the server sends the *new global* model and every fresh client recomputes
// its map with it.
func (a *RFedAvgPlus) Round(round int, sampled []int) fl.RoundResult {
	a.fresh = a.fresh[:0]
	rr := a.Base.Round(round, sampled)
	f, fresh := a.F, a.fresh
	f.Phase(telemetry.PhaseDeltaSync, round, func(telemetry.SpanContext) {
		deltaOuts := f.MapClients(round, fresh, func(w *fl.Worker, c *fl.Client, rng *rand.Rand) fl.ClientOut {
			w.Net().SetFlat(a.Global)
			return fl.ClientOut{Client: c, Aux: clientDelta(f, w, c, round, rng, a.NoiseDelta)}
		})
		acceptDeltas(f, a.table, round, deltaOuts)
		a.table.ObserveDrift(f.Cfg.Health)
	})
	// Staleness accounting: unsampled clients' rows age; refreshed rows
	// reset to age 1. Past MaxStale a row falls out of the next round's
	// on-demand δ̄^{-k} targets.
	a.table.Tick()

	// Each model version ships once per client: whoever recomputed its map
	// last round already holds this round's model. A hold starts only in a
	// round that sampled nobody out (engine.Held).
	elided := 0
	for _, k := range sampled {
		if a.held.Assign(k, round) {
			elided++
		}
	}
	if len(sampled) == len(a.held) {
		for _, k := range fresh {
			a.held.Hold(k, round+1)
		}
	}

	// The second synchronization's share of the round: the new model down to
	// the fresh clients — less the models already held in sync #1 — and their
	// maps up.
	rr.Elided = elided
	rr.DownBytes += int64(len(fresh)-elided) * fl.PayloadBytes(f.NumParams())
	rr.UpBytes += int64(len(fresh)) * fl.PayloadBytes(f.FeatureDim())
	return rr
}
