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

	Base
	c       []float64         // server control variate
	clientC map[int][]float64 // per-client control variates, lazily allocated
	mu      sync.Mutex        // guards clientC
}

// NewScaffold creates a SCAFFOLD baseline with global step size etaG.
func NewScaffold(etaG float64) *Scaffold { return &Scaffold{EtaG: etaG, ClipNorm: 0.5} }

// Name returns "Scaffold".
func (a *Scaffold) Name() string { return "Scaffold" }

// Setup initializes the global model and zero control variates and binds
// both halves; SCAFFOLD ships model + control variate in both directions.
func (a *Scaffold) Setup(f *Federation) {
	n := f.NumParams()
	a.Init(f, Method{Local: a.local, Server: a.server, AuxUp: n, AuxDown: n})
	a.c = make([]float64, n)
	a.clientC = make(map[int][]float64, len(f.Clients))
}

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

// local corrects every gradient step by (c - c_k) and reports Δc_k beside the
// local model. a.c is not written before the round's clients are done.
func (a *Scaffold) local(round int, w *Worker, c *Client, rng *rand.Rand) (float64, []float64) {
	f, serverC := a.F, a.c
	ck := a.clientVariate(c.ID)

	// Option I refresh target: the gradient of one evaluation-sized
	// local batch at the global model, computed before local training
	// perturbs w.
	w.t.Batch(c.Data, w.t.Draw(c.Data, rng, evalBatch))
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

	dc := make([]float64, len(ck))
	for i := range dc {
		dc[i] = ckNew[i] - ck[i]
		ck[i] = ckNew[i]
	}
	return loss, dc
}

// server: w ← w + η_g·(w̄ - w); c ← c + (|S|/N)·mean(Δc). Δc is a
// difference the client has already applied to c_k, so a folded one counts in
// full: c stays the mean of the c_k.
func (a *Scaffold) server(_ int, global, avg []float64, agg []ClientOut, _ []int) []float64 {
	for i := range global {
		global[i] += a.EtaG * (avg[i] - global[i])
	}
	scale := 1.0 / float64(len(a.F.Clients))
	for _, o := range agg {
		for i, v := range o.Aux {
			a.c[i] += scale * v
		}
	}
	return global
}
