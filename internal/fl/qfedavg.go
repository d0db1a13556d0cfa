package fl

import (
	"math"
	"math/rand"
)

// QFedAvg (q-FFL, Li et al., ICLR 2020) reweights the aggregation toward
// clients with high loss, interpolating between FedAvg (q → 0) and minimax
// fairness (q → ∞). Each client reports its pre-training loss F_k beside its
// local model; the server forms the scaled model delta and applies the
// q-weighted Lipschitz-normalized update.
type QFedAvg struct {
	// Q is the fairness exponent (the paper uses 1.0 on the image
	// benchmarks and 1e-4 on Sent140).
	Q float64

	Base
}

// NewQFedAvg creates a q-FedAvg baseline with the given q.
func NewQFedAvg(q float64) *QFedAvg { return &QFedAvg{Q: q} }

// Name returns "q-FedAvg".
func (a *QFedAvg) Name() string { return "q-FedAvg" }

// Setup initializes the global model and binds both halves; F_k travels up
// beside the model.
func (a *QFedAvg) Setup(f *Federation) {
	a.Init(f, Method{Local: a.local, Server: a.server, AuxUp: 1})
}

// local reports F_k(w^t), the loss of the global model on one
// evaluation-sized local batch, beside the trained model.
func (a *QFedAvg) local(round int, w *Worker, c *Client, rng *rand.Rand) (float64, []float64) {
	f := a.F
	fk := w.t.Loss(c.Data, w.t.Draw(c.Data, rng, evalBatch))
	return f.LocalTrain(w, c, rng, f.DefaultLocalOpts(round)), []float64{fk}
}

// server applies w ← w - Σ F_k^q Δw_k / Σ h_k with Δw_k = L·(w^t - ŵ_k),
// L = 1/η as in q-FFL, derived from the reported model, and
// h_k = q·F_k^{q-1}·||Δw_k||² + L·F_k^q.
func (a *QFedAvg) server(round int, global, num []float64, agg []ClientOut) []float64 {
	lr0 := a.F.DefaultLocalOpts(round).LR(0)
	clear(num)
	den := 0.0
	for _, out := range agg {
		fk := math.Max(out.Aux[0], 1e-10)
		fq := math.Pow(fk, a.Q)
		normSq := 0.0
		for j, local := range out.Params {
			v := (global[j] - local) / lr0
			normSq += v * v
			num[j] += fq * v
		}
		den += a.Q*math.Pow(fk, a.Q-1)*normSq + fq/lr0
	}
	if den > 0 {
		for i := range global {
			global[i] -= num[i] / den
		}
	}
	return global
}
