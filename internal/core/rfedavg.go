package core

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/fl"
	"repro/internal/tensor"
)

// RFedAvg implements Algorithm 1 of the paper. Each round the server
// broadcasts the global model w_cE *and the full table of delayed maps*
// δ_cE = (δ¹, …, δᴺ); each client runs E local SGD steps on
// F'_k = f_k + λ·r'_k, where r'_k measures the squared MMD between the
// client's current batch features and every other client's delayed map;
// after local training the client recomputes its own map *with its local
// model* and ships it with the model update.
//
// Broadcasting the table costs O(d·N) per client and O(d·N²) per round —
// the shortcoming that motivates rFedAvg+.
type RFedAvg struct {
	// Lambda is the regularization weight λ, which doubles as the
	// normalization factor for the feature magnitude (Sec. VI-A).
	Lambda float64
	// NoiseDelta, if non-nil, perturbs a client's map in place before it is
	// sent to the server — the DP Gaussian mechanism of the privacy
	// evaluation (Fig. 12).
	NoiseDelta func(delta []float64, rng *rand.Rand)

	fl.Base
	table *DeltaTable
}

// NewRFedAvg creates Algorithm 1 with regularization weight λ.
func NewRFedAvg(lambda float64) *RFedAvg { return &RFedAvg{Lambda: lambda} }

// Name returns "rFedAvg".
func (a *RFedAvg) Name() string { return "rFedAvg" }

// Setup initializes the global model w_0 and the zero table δ_0 and binds both
// halves. Down: the model and the N·d table; up: the model and the client's
// own map.
func (a *RFedAvg) Setup(f *fl.Federation) {
	n, d := len(f.Clients), f.FeatureDim()
	a.Init(f, fl.Method{Local: a.local, Server: a.server, AuxUp: d, AuxDown: n * d})
	a.table = NewDeltaTable(n, d)
}

// Table exposes the server's δ table (read-only use in tests/experiments).
func (a *RFedAvg) Table() *DeltaTable { return a.table }

// MMDTable implements fl.MMDReporter over the server's δ table.
func (a *RFedAvg) MMDTable() engine.MMDTable { return a.table }

// local is lines 6–10 of Algorithm 1: E steps on F'_k against the broadcast
// (delayed) table — the server half does not write it before the round's
// clients are done — then δ^k recomputed with the client's *local* model.
func (a *RFedAvg) local(round int, w *fl.Worker, c *fl.Client, rng *rand.Rand) (float64, []float64) {
	f := a.F
	o := f.DefaultLocalOpts(round)
	d := f.FeatureDim()
	o.FeatGrad = func(feat *tensor.Tensor) *tensor.Tensor {
		// Faithful to Algorithm 1: the client holds the full table and
		// accumulates the pairwise target itself, an O(N·d) pass per
		// local step. All buffers come from the worker's arena, so the
		// recompute costs FLOPs, not allocations.
		target := a.table.MeanExcludingInto(w.Arena().Tensor("reg.target", d).Data, c.ID)
		return regGrad(w.Arena(), feat, target, a.Lambda)
	}
	loss := f.LocalTrain(w, c, rng, o)
	return loss, clientDelta(f, w, c, round, rng, a.NoiseDelta)
}

// server is lines 12–13: the mean is the next global; refresh the reporting
// clients' rows.
func (a *RFedAvg) server(round int, _, mean []float64, agg []fl.ClientOut) []float64 {
	acceptDeltas(a.F, a.table, round, agg)
	a.table.Tick()
	return mean
}

// acceptDeltas offers every reported map to t through the server's gate
// (DeltaTable.Accept). A rejected map leaves its row as it was and costs one
// invalid_delta event, where the transport server evicts the sender.
func acceptDeltas(f *fl.Federation, t *DeltaTable, round int, outs []fl.ClientOut) {
	for _, o := range outs {
		if err := t.Accept(o.Client.ID, o.Aux); err != nil {
			f.Cfg.Ledger.Emit("invalid_delta", round, fmt.Sprintf("client %d: %v", o.Client.ID, err))
		}
	}
}

// clientDelta computes client c's map δ^c with the model w's network holds,
// under a compute_delta span, and applies the privacy hook. The result is
// freshly allocated per client (it outlives the worker's turn: the server
// stores it after the round), but the gather buffers behind it come from the
// arena.
func clientDelta(f *fl.Federation, w *fl.Worker, c *fl.Client, round int, rng *rand.Rand, noise func([]float64, *rand.Rand)) []float64 {
	delta := make([]float64, f.FeatureDim())
	cd := f.Cfg.Tracer.Start("compute_delta", w.SpanContext())
	cd.Round, cd.Client = round, c.ID
	ComputeDeltaInto(delta, w.Arena(), w.Net(), c.Data, 0)
	cd.End()
	if noise != nil {
		noise(delta, rng)
	}
	return delta
}
