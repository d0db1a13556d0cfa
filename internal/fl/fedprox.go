package fl

import (
	"math/rand"

	"repro/internal/nn"
)

// FedProx (Li et al., MLSys 2020) augments each client's local objective
// with a proximal term (μ/2)·||w - w_global||², pulling local iterates
// toward the current global model to tame client drift on non-IID data.
type FedProx struct {
	// Mu is the proximal coefficient (the paper's FedProx μ, 1.0 for the
	// image benchmarks and 0.01 for Sent140).
	Mu float64

	Base
}

// NewFedProx creates a FedProx baseline with the given proximal μ.
func NewFedProx(mu float64) *FedProx { return &FedProx{Mu: mu} }

// Name returns "FedProx".
func (a *FedProx) Name() string { return "FedProx" }

// Setup initializes the global model and binds the proximal client half.
func (a *FedProx) Setup(f *Federation) { a.Init(f, Method{Local: a.local}) }

// local is FedAvg's client half plus the proximal gradient μ·(w - w_global)
// added after every local backprop.
func (a *FedProx) local(round int, w *Worker, c *Client, rng *rand.Rand) (float64, []float64) {
	global := a.Global // every worker proxes toward the round's snapshot
	o := a.F.DefaultLocalOpts(round)
	o.PostGrad = func(params []*nn.Param) {
		off := 0
		for _, p := range params {
			wd, gd := p.W.Data, p.G.Data
			for i := range wd {
				gd[i] += a.Mu * (wd[i] - global[off+i])
			}
			off += len(wd)
		}
	}
	return a.F.LocalTrain(w, c, rng, o), nil
}
