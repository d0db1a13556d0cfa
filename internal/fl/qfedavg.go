package fl

import (
	"math"
	"math/rand"
)

// QFedAvg (q-FFL, Li et al., ICLR 2020) reweights the aggregation toward
// clients with high loss, interpolating between FedAvg (q → 0) and minimax
// fairness (q → ∞). Each client reports its pre-training loss F_k and the
// scaled model delta; the server applies the q-weighted Lipschitz-normalized
// update.
type QFedAvg struct {
	// Q is the fairness exponent (the paper uses 1.0 on the image
	// benchmarks and 1e-4 on Sent140).
	Q float64

	f      *Federation
	global []float64
}

// NewQFedAvg creates a q-FedAvg baseline with the given q.
func NewQFedAvg(q float64) *QFedAvg { return &QFedAvg{Q: q} }

// Name returns "q-FedAvg".
func (a *QFedAvg) Name() string { return "q-FedAvg" }

// Setup initializes the global model.
func (a *QFedAvg) Setup(f *Federation) {
	a.f = f
	a.global = f.InitialParams()
}

// GlobalParams returns the current global model.
func (a *QFedAvg) GlobalParams() []float64 { return a.global }

// Round runs one q-FedAvg round.
func (a *QFedAvg) Round(round int, sampled []int) RoundResult {
	f := a.f
	global := a.global
	o := f.DefaultLocalOpts(round)
	lr0 := o.LR(0)
	outs := f.MapClients(round, sampled, func(w *Worker, c *Client, rng *rand.Rand) ClientOut {
		w.LoadModel(global)
		// F_k(w^t): loss of the global model on one evaluation-sized local
		// batch.
		fk := w.t.Loss(c.Data, w.t.Draw(c.Data, rng, f.Cfg.EvalBatch))
		loss := f.LocalTrain(w, c, rng, o)
		local := w.Net().GetFlat()
		// Δw_k = L·(w^t - ŵ_k), with L = 1/η as in q-FFL.
		dw := make([]float64, len(local))
		for i := range dw {
			dw[i] = (global[i] - local[i]) / lr0
		}
		return ClientOut{Client: c, Params: dw, Loss: loss, Aux: []float64{fk}}
	})

	// Server: w ← w - Σ F_k^q Δw_k / Σ h_k,
	// h_k = q·F_k^{q-1}·||Δw_k||² + L·F_k^q.
	num := make([]float64, len(a.global))
	den := 0.0
	for _, out := range outs {
		fk := math.Max(out.Aux[0], 1e-10)
		fq := math.Pow(fk, a.Q)
		normSq := 0.0
		for _, v := range out.Params {
			normSq += v * v
		}
		for i, v := range out.Params {
			num[i] += fq * v
		}
		den += a.Q*math.Pow(fk, a.Q-1)*normSq + fq/lr0
	}
	if den > 0 {
		for i := range a.global {
			a.global[i] -= num[i] / den
		}
	}

	p := int64(len(sampled))
	return RoundResult{
		TrainLoss:    MeanLoss(outs),
		ClientLosses: LossMap(outs),
		DownBytes:    p * PayloadBytes(f.NumParams()),
		UpBytes:      p * (PayloadBytes(f.NumParams()) + PayloadBytes(1)),
	}
}
