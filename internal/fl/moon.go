package fl

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// MOON (model-contrastive federated learning, Li et al., CVPR 2021) is the
// third widely used non-IID baseline alongside FedProx and SCAFFOLD. Each
// local step adds a contrastive term on the feature representation z:
// pull z toward the *global* model's representation z_glob of the same
// input and push it away from the client's *previous* local model's
// representation z_prev:
//
//	ℓ_con = -log  exp(sim(z, z_glob)/τ) / (exp(sim(z, z_glob)/τ) + exp(sim(z, z_prev)/τ))
//
// with cosine similarity and temperature τ. The gradient with respect to z
// is injected at the feature layer, exactly where the paper's distribution
// regularizer attaches — the two methods are directly comparable.
type MOON struct {
	// Mu weighs the contrastive term (MOON's μ).
	Mu float64
	// Tau is the contrastive temperature (MOON uses 0.5).
	Tau float64

	Base
	mu   sync.Mutex
	prev map[int][]float64 // previous local model per client
}

// NewMOON creates a MOON baseline.
func NewMOON(mu, tau float64) *MOON { return &MOON{Mu: mu, Tau: tau} }

// Name returns "MOON".
func (a *MOON) Name() string { return "MOON" }

// Setup initializes the global model and the per-client previous models and
// binds the contrastive client half.
func (a *MOON) Setup(f *Federation) {
	a.Init(f, Method{Local: a.local})
	a.prev = make(map[int][]float64)
}

func (a *MOON) prevModel(id int) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.prev[id]
}

func (a *MOON) setPrev(id int, params []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prev[id] = params
}

// local trains against two frozen auxiliary networks: the global model and
// the client's previous local model (global on the client's first round).
func (a *MOON) local(round int, w *Worker, c *Client, rng *rand.Rand) (float64, []float64) {
	f := a.F
	globNet := f.Cfg.Builder(f.Cfg.ModelSeed)
	globNet.SetFlat(a.Global)
	prevNet := f.Cfg.Builder(f.Cfg.ModelSeed)
	if p := a.prevModel(c.ID); p != nil {
		prevNet.SetFlat(p)
	} else {
		prevNet.SetFlat(a.Global)
	}
	o := f.DefaultLocalOpts(round)
	o.FeatGradX = func(x, feat *tensor.Tensor) *tensor.Tensor {
		return a.contrastiveGrad(feat, globNet.Features(x), prevNet.Features(x))
	}
	loss := f.LocalTrain(w, c, rng, o)
	a.setPrev(c.ID, w.Net().GetFlat())
	return loss, nil
}

// contrastiveGrad returns ∂(μ/B·Σ ℓ_con)/∂z for a batch of features z
// against the frozen representations zg (global) and zp (previous local).
func (a *MOON) contrastiveGrad(z, zg, zp *tensor.Tensor) *tensor.Tensor {
	b, d := z.Dim(0), z.Dim(1)
	grad := tensor.New(b, d)
	scale := a.Mu / float64(b)
	for r := 0; r < b; r++ {
		zr, zgr, zpr := z.Row(r), zg.Row(r), zp.Row(r)
		sg, dsg := cosineAndGrad(zr, zgr)
		sp, dsp := cosineAndGrad(zr, zpr)
		// Softmax over {sg/τ, sp/τ}; ℓ = -log σ_g.
		eg := math.Exp(sg / a.Tau)
		ep := math.Exp(sp / a.Tau)
		sigG := eg / (eg + ep)
		g := grad.Row(r)
		cg := (sigG - 1) / a.Tau // ∂ℓ/∂sg
		cp := (1 - sigG) / a.Tau // ∂ℓ/∂sp
		for i := 0; i < d; i++ {
			g[i] = scale * (cg*dsg[i] + cp*dsp[i])
		}
	}
	return grad
}

// cosineAndGrad returns sim(z,u) and ∂sim/∂z. Degenerate (zero-norm)
// vectors yield similarity 0 with zero gradient.
func cosineAndGrad(z, u []float64) (float64, []float64) {
	var zz, uu, zu float64
	for i := range z {
		zz += z[i] * z[i]
		uu += u[i] * u[i]
		zu += z[i] * u[i]
	}
	g := make([]float64, len(z))
	if zz == 0 || uu == 0 {
		return 0, g
	}
	nz, nu := math.Sqrt(zz), math.Sqrt(uu)
	c := zu / (nz * nu)
	for i := range z {
		g[i] = u[i]/(nz*nu) - c*z[i]/zz
	}
	return c, g
}

// ContrastiveLoss evaluates the mean ℓ_con of a batch, for tests and
// diagnostics.
func (a *MOON) ContrastiveLoss(z, zg, zp *tensor.Tensor) float64 {
	b := z.Dim(0)
	total := 0.0
	for r := 0; r < b; r++ {
		sg, _ := cosineAndGrad(z.Row(r), zg.Row(r))
		sp, _ := cosineAndGrad(z.Row(r), zp.Row(r))
		eg := math.Exp(sg / a.Tau)
		ep := math.Exp(sp / a.Tau)
		total += -math.Log(eg / (eg + ep))
	}
	return total / float64(b)
}
