package core

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/fl"
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
	// StreamN switches the δ table to its streaming (running-sum) mode when
	// the federation has at least StreamN clients, making each δ̄^{-k} an
	// O(d) read instead of an O(N·d) pass. 0 means the default threshold
	// (1024); negative disables streaming regardless of N.
	StreamN int

	f      *fl.Federation
	global []float64
	table  *DeltaTable
	// held says which clients need not download the next round's model:
	// the second synchronization already delivered it.
	held engine.Held
}

// DefaultStreamN is the client count at which rFedAvg+ servers (sim and
// transport) switch the δ table to streaming mode when their StreamN knob
// is left 0. Below it the exact per-target pass is cheap and keeps
// bitwise-stable summation order.
const DefaultStreamN = 1024

// NewRFedAvgPlus creates Algorithm 2 with regularization weight λ.
func NewRFedAvgPlus(lambda float64) *RFedAvgPlus { return &RFedAvgPlus{Lambda: lambda} }

// Name returns "rFedAvg+".
func (a *RFedAvgPlus) Name() string { return "rFedAvg+" }

// Setup initializes the global model and the zero table.
func (a *RFedAvgPlus) Setup(f *fl.Federation) {
	a.f = f
	a.global = f.InitialParams()
	n, d := len(f.Clients), f.FeatureDim()
	a.table = NewDeltaTable(n, d)
	a.table.MaxStale = a.MaxStale
	streamN := a.StreamN
	if streamN == 0 {
		streamN = DefaultStreamN
	}
	if streamN > 0 && n >= streamN {
		a.table.SetStreaming(true)
	}
	a.held = make(engine.Held, n)
}

// GlobalParams returns the current global model.
func (a *RFedAvgPlus) GlobalParams() []float64 { return a.global }

// Table exposes the server's δ table (read-only use in tests/experiments).
func (a *RFedAvgPlus) Table() *DeltaTable { return a.table }

// MMDTable implements fl.MMDReporter over the server's δ table.
func (a *RFedAvgPlus) MMDTable() engine.MMDTable { return a.table }

// Round runs one rFedAvg+ communication round (lines 4–18 of Algorithm 2).
func (a *RFedAvgPlus) Round(round int, sampled []int) fl.RoundResult {
	f := a.f
	global := a.global

	// First communication: w_cE and δ̄^{-k} down; local training; w back up.
	outs := f.MapClients(round, sampled, func(w *fl.Worker, c *fl.Client, rng *rand.Rand) fl.ClientOut {
		w.LoadModel(global)
		// The wire ships only δ̄^{-k} (lines 17–18 of Algorithm 2): O(d) per
		// sampled client, not the O(N·d) table. The simulation computes it
		// here on demand — the table is unmutated since last round's Tick, so
		// this reads the same state the old end-of-round precompute saw, and
		// only for the sampled cohort instead of all N clients.
		target := a.table.MeanExcludingInto(w.Arena().Tensor("reg.target", f.FeatureDim()).Data, c.ID)
		o := f.DefaultLocalOpts(round)
		o.FeatGrad = RegTerm(w.Arena(), target, a.Lambda)
		loss := f.LocalTrain(w, c, rng, o)
		out := fl.ClientOut{Client: c, Params: w.Net().GetFlat(), Loss: loss}
		out.ReconErr = f.CompressUplink(w, round, c, 0, global, out.Params)
		return out
	})
	// Async mode folds previously parked updates in with a staleness
	// discount; in sync mode agg == outs and the weights are plain n_k.
	agg, ages := f.ApplyAsync(round, outs)
	norms := fl.UpdateNorms(a.global, agg)
	var loss float64
	a.global, loss = f.Aggregate(a.global, agg, ages)

	// Second communication (lines 13–16): the server sends the *new global*
	// model; every fresh client recomputes its map with it. Clients whose
	// update was folded late trained for an older round and are still
	// considered in flight, so their δ rows simply age until they are
	// sampled fresh again (the MaxStale bound then excludes overripe rows).
	fresh := fl.FreshIDs(agg, ages)
	newGlobal := a.global
	deltaOuts := f.MapClients(round, fresh, func(w *fl.Worker, c *fl.Client, rng *rand.Rand) fl.ClientOut {
		w.Net().SetFlat(newGlobal)
		delta := make([]float64, f.FeatureDim())
		cd := f.Cfg.Tracer.Start("compute_delta", w.SpanContext())
		cd.Round, cd.Client = round, c.ID
		ComputeDeltaInto(delta, w.Arena(), w.Net(), c.Data, 0)
		cd.End()
		if a.NoiseDelta != nil {
			a.NoiseDelta(delta, rng)
		}
		out := fl.ClientOut{Client: c, Aux: delta}
		out.ReconErr = f.CompressUplink(w, round, c, 1, nil, delta)
		return out
	})
	for _, out := range deltaOuts {
		a.table.Set(out.Client.ID, out.Aux)
	}
	// Per-client MMD drift for the health monitor, off the freshly
	// synchronized rows.
	if h := f.Cfg.Health; h != nil {
		for _, out := range deltaOuts {
			if id := out.Client.ID; a.table.Occupied(id) {
				h.ObserveDrift(id, a.table.Drift(id))
			}
		}
	}
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

	p, p2 := int64(len(sampled)), int64(len(fresh))
	d := f.FeatureDim()
	rr := fl.RoundResult{
		TrainLoss:    loss,
		ClientLosses: fl.LossMap(agg),
		ClientNorms:  norms,
		// Down: (model + average map) in sync #1 — less the models already
		// held — and the new model in sync #2 (only fresh clients take part
		// in the second synchronization).
		DownBytes: (p-int64(elided)+p2)*fl.PayloadBytes(f.NumParams()) + p*fl.PayloadBytes(d),
		Elided:    elided,
		// Up: model in sync #1, own map in sync #2, each under the
		// configured uplink codec.
		UpBytes: p*f.UplinkBytes(f.NumParams()) + p2*f.UplinkBytes(d),
	}
	f.AnnotateCodec(&rr, outs, deltaOuts)
	return rr
}
