package fl

import (
	"math/rand"
	"sync"

	"repro/internal/nn"
	"repro/internal/opt"
)

// Scaffold (Karimireddy et al., ICML 2020) corrects client drift with
// control variates: every local gradient step adds (c - c_k), where c is
// the server's running estimate of the global gradient direction and c_k
// the client's. The client refreshes c_k with SCAFFOLD's "option I": the
// mini-batch gradient of its data at the received *global* model — the
// variant that stays stable on non-convex models (option II's
// (x - y)/(Kη) estimate feeds aggregation noise back through 1/η and
// diverges on these CNNs at the paper's learning rate). The server folds
// the shipped differences into c and applies the averaged model update
// scaled by the global step size η_g.
type Scaffold struct {
	// EtaG is the server (global) learning rate η_g; the paper uses 1.0.
	EtaG float64
	// ClipNorm bounds the global L2 norm of the corrected local gradient;
	// ≤ 0 disables. Extreme label skew (one class per client) makes the
	// stale correction overshoot across the E local steps on non-convex
	// models, so the practical default is a generous clip.
	ClipNorm float64

	f       *Federation
	global  []float64
	c       []float64         // server control variate
	clientC map[int][]float64 // per-client control variates, lazily allocated
	mu      sync.Mutex        // guards clientC
}

// NewScaffold creates a SCAFFOLD baseline with global step size etaG.
func NewScaffold(etaG float64) *Scaffold { return &Scaffold{EtaG: etaG, ClipNorm: 0.5} }

// Name returns "Scaffold".
func (a *Scaffold) Name() string { return "Scaffold" }

// Setup initializes the global model and zero control variates.
func (a *Scaffold) Setup(f *Federation) {
	a.f = f
	a.global = f.InitialParams()
	a.c = make([]float64, f.NumParams())
	a.clientC = make(map[int][]float64, len(f.Clients))
}

// GlobalParams returns the current global model.
func (a *Scaffold) GlobalParams() []float64 { return a.global }

func (a *Scaffold) clientVariate(id int) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	ck, ok := a.clientC[id]
	if !ok {
		ck = make([]float64, len(a.c))
		a.clientC[id] = ck
	}
	return ck
}

// Round runs one SCAFFOLD round.
func (a *Scaffold) Round(round int, sampled []int) RoundResult {
	f := a.f
	global := a.global
	serverC := a.c
	outs := f.MapClients(round, sampled, func(w *Worker, c *Client, rng *rand.Rand) ClientOut {
		ck := a.clientVariate(c.ID)
		w.LoadModel(global)

		// Option I refresh target: the gradient of one evaluation-sized
		// local batch at the global model, computed before local training
		// perturbs w.
		w.t.Batch(c.Data, w.t.Draw(c.Data, rng, f.Cfg.EvalBatch))
		ckNew := nn.FlattenGrads(w.Net().Params())

		o := f.DefaultLocalOpts(round)
		o.PostGrad = func(params []*nn.Param) {
			off := 0
			for _, p := range params {
				gd := p.G.Data
				for i := range gd {
					gd[i] += serverC[off+i] - ck[off+i]
				}
				off += len(gd)
			}
			if a.ClipNorm > 0 {
				opt.ClipGradNorm(params, a.ClipNorm)
			}
		}
		loss := f.LocalTrain(w, c, rng, o)
		local := w.Net().GetFlat()

		dc := make([]float64, len(local))
		for i := range dc {
			dc[i] = ckNew[i] - ck[i]
			ck[i] = ckNew[i]
		}
		return ClientOut{Client: c, Params: local, Loss: loss, Aux: dc}
	})

	// Server: w ← w + η_g·(w̄ - w); c ← c + (|S|/N)·mean(Δc).
	avg := WeightedAverage(outs)
	for i := range a.global {
		a.global[i] += a.EtaG * (avg[i] - a.global[i])
	}
	scale := 1.0 / float64(len(f.Clients))
	for _, o := range outs {
		for i, v := range o.Aux {
			a.c[i] += scale * v
		}
	}

	p := int64(len(sampled))
	// SCAFFOLD ships model + control variate in both directions.
	perClient := PayloadBytes(f.NumParams()) * 2
	return RoundResult{
		TrainLoss:    MeanLoss(outs),
		ClientLosses: LossMap(outs),
		DownBytes:    p * perClient,
		UpBytes:      p * perClient,
	}
}
