// Package opt implements the optimizers and learning-rate schedules used in
// the paper's experiments: plain SGD (the FedAvg local solver), RMSProp (the
// Sent140 local solver), the theoretical schedule η_t = 2/(μ(γ+t)) from the
// convergence analysis, and global-norm gradient clipping.
package opt

import (
	"math"

	"repro/internal/nn"
)

// Optimizer updates parameters in place from their accumulated gradients.
// Implementations keep per-parameter state indexed by position, so an
// optimizer instance must always be used with the same parameter list.
type Optimizer interface {
	// Step applies one update with learning rate lr and clears nothing;
	// callers zero gradients themselves.
	Step(params []*nn.Param, lr float64)
	// Reset clears internal state (e.g. RMSProp's squared-gradient
	// averages), used when a client restarts local training from a fresh
	// global model.
	Reset()
}

// SGD is plain stochastic gradient descent, w ← w - lr·g: FedAvg's local
// solver. It keeps no state.
type SGD struct{}

// NewSGD creates a plain SGD optimizer.
func NewSGD() *SGD { return &SGD{} }

// Step applies w ← w - lr·g.
func (s *SGD) Step(params []*nn.Param, lr float64) {
	for _, p := range params {
		w, g := p.W.Data, p.G.Data
		for i := range w {
			w[i] -= lr * g[i]
		}
	}
}

// Reset does nothing: SGD has no state.
func (s *SGD) Reset() {}

// RMSProp is the RMSProp optimizer (Tieleman & Hinton), the local solver
// the paper uses for the Sent140 LSTM.
type RMSProp struct {
	Alpha float64 // moving-average coefficient, default 0.99
	Eps   float64
	sq    [][]float64
}

// NewRMSProp creates an RMSProp optimizer with the PyTorch defaults
// (alpha 0.99, eps 1e-8).
func NewRMSProp() *RMSProp { return &RMSProp{Alpha: 0.99, Eps: 1e-8} }

// Step applies the RMSProp update.
func (r *RMSProp) Step(params []*nn.Param, lr float64) {
	if r.sq == nil {
		r.sq = make([][]float64, len(params))
		for k, p := range params {
			r.sq[k] = make([]float64, p.W.Size())
		}
	}
	for k, p := range params {
		w, g, sq := p.W.Data, p.G.Data, r.sq[k]
		for i := range w {
			sq[i] = r.Alpha*sq[i] + (1-r.Alpha)*g[i]*g[i]
			w[i] -= lr * g[i] / (math.Sqrt(sq[i]) + r.Eps)
		}
	}
}

// Reset clears the squared-gradient accumulators in place, keeping their
// storage so a worker reused across rounds does not re-allocate them.
func (r *RMSProp) Reset() {
	for _, sq := range r.sq {
		clear(sq)
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, and returns the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.G.ScaleInPlace(scale)
		}
	}
	return norm
}

// Schedule maps a global step index to a learning rate.
type Schedule interface {
	LR(t int) float64
}

// ConstLR is a constant learning rate.
type ConstLR float64

// LR returns the constant rate.
func (c ConstLR) LR(t int) float64 { return float64(c) }

// InverseDecayLR is the schedule from the paper's convergence theorems:
// η_t = 2/(μ(γ+t)) with γ = max(8L/μ, E). It is what the convex-validation
// experiments use; the neural benchmarks use ConstLR as in the paper.
type InverseDecayLR struct {
	Mu    float64
	Gamma float64
}

// NewTheoremLR builds the theorem's schedule from the strong-convexity and
// smoothness constants and the number of local steps E.
func NewTheoremLR(mu, l float64, e int) InverseDecayLR {
	gamma := 8 * l / mu
	if g := float64(e); g > gamma {
		gamma = g
	}
	return InverseDecayLR{Mu: mu, Gamma: gamma}
}

// LR returns 2/(μ(γ+t)).
func (s InverseDecayLR) LR(t int) float64 { return 2 / (s.Mu * (s.Gamma + float64(t))) }
