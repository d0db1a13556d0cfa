package core

import (
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

	f      *fl.Federation
	global []float64
	table  *DeltaTable
}

// NewRFedAvg creates Algorithm 1 with regularization weight λ.
func NewRFedAvg(lambda float64) *RFedAvg { return &RFedAvg{Lambda: lambda} }

// Name returns "rFedAvg".
func (a *RFedAvg) Name() string { return "rFedAvg" }

// Setup initializes the global model w_0 and the zero table δ_0.
func (a *RFedAvg) Setup(f *fl.Federation) {
	a.f = f
	a.global = f.InitialParams()
	a.table = NewDeltaTable(len(f.Clients), f.FeatureDim())
}

// GlobalParams returns the current global model.
func (a *RFedAvg) GlobalParams() []float64 { return a.global }

// Table exposes the server's δ table (read-only use in tests/experiments).
func (a *RFedAvg) Table() *DeltaTable { return a.table }

// MMDTable implements fl.MMDReporter over the server's δ table.
func (a *RFedAvg) MMDTable() engine.MMDTable { return a.table }

// Round runs one rFedAvg communication round (lines 3–13 of Algorithm 1).
func (a *RFedAvg) Round(round int, sampled []int) fl.RoundResult {
	f := a.f
	global := a.global
	table := a.table // the broadcast (delayed) copy used by all clients this round
	outs := f.MapClients(round, sampled, func(w *fl.Worker, c *fl.Client, rng *rand.Rand) fl.ClientOut {
		w.LoadModel(global)
		o := f.DefaultLocalOpts(round)
		d := f.FeatureDim()
		o.FeatGrad = func(feat *tensor.Tensor) *tensor.Tensor {
			// Faithful to Algorithm 1: the client holds the full table and
			// accumulates the pairwise target itself, an O(N·d) pass per
			// local step. All buffers come from the worker's arena, so the
			// recompute costs FLOPs, not allocations.
			target := table.MeanExcludingInto(w.Arena().Tensor("reg.target", d).Data, c.ID)
			return regGrad(w.Arena(), feat, target, a.Lambda)
		}
		loss := f.LocalTrain(w, c, rng, o)
		// Line 10: δ^k recomputed with the client's *local* model. The
		// result is freshly allocated per client (it outlives the worker's
		// turn: the server stores it after the round), but the gather
		// buffers behind it come from the arena.
		delta := make([]float64, d)
		cd := f.Cfg.Tracer.Start("compute_delta", w.SpanContext())
		cd.Round, cd.Client = round, c.ID
		ComputeDeltaInto(delta, w.Arena(), w.Net(), c.Data, 0)
		cd.End()
		if a.NoiseDelta != nil {
			a.NoiseDelta(delta, rng)
		}
		out := fl.ClientOut{Client: c, Params: w.Net().GetFlat(), Loss: loss, Aux: delta}
		out.ReconErr = f.CompressUplink(w, round, c, 0, global, out.Params)
		f.CompressUplink(w, round, c, 1, nil, delta)
		return out
	})

	// Lines 12–13: aggregate models, refresh the sampled clients' rows.
	norms := fl.UpdateNorms(a.global, outs)
	a.global = fl.WeightedAverage(outs)
	for _, out := range outs {
		a.table.Set(out.Client.ID, out.Aux)
	}
	a.table.Tick()

	p := int64(len(sampled))
	n := len(f.Clients)
	d := f.FeatureDim()
	rr := fl.RoundResult{
		TrainLoss:    fl.MeanLoss(outs),
		ClientLosses: fl.LossMap(outs),
		ClientNorms:  norms,
		// Down: model + the N·d table, per sampled client.
		DownBytes: p * (fl.PayloadBytes(f.NumParams()) + fl.PayloadBytes(n*d)),
		// Up: model + own map, each under the configured uplink codec.
		UpBytes: p * (f.UplinkBytes(f.NumParams()) + f.UplinkBytes(d)),
	}
	f.AnnotateCodec(&rr, outs)
	return rr
}
