package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, max(0, x). Its output and
// gradient buffers are layer-owned scratch, reused across steps.
type ReLU struct {
	// mask records which inputs of the last training-mode Forward were
	// positive; an evaluation-mode Forward empties it.
	mask    []bool
	out, dx *tensor.Tensor
}

// NewReLU creates a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes x where x > 0 and +0 elsewhere (−0 and NaN included)
// and, in training mode, records which inputs were positive.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.out = tensor.EnsureShape(r.out, x.Shape()...)
	in := x.Data
	out := r.out.Data[:len(in)]
	if !train {
		r.mask = r.mask[:0]
		for i, v := range in {
			out[i] = keepIf(v, v > 0)
		}
		return r.out
	}
	if cap(r.mask) < len(in) {
		r.mask = make([]bool, len(in))
	}
	mask := r.mask[:len(in)]
	r.mask = mask
	for i, v := range in {
		out[i] = keepIf(v, v > 0)
		mask[i] = v > 0
	}
	return r.out
}

// keepIf returns v when keep is set and +0 otherwise, selecting on the bit
// pattern so it compiles to a conditional move: on activations that are
// positive about half the time, a branch mispredicts every other element.
func keepIf(v float64, keep bool) float64 {
	var m uint64
	if keep {
		m = ^uint64(0)
	}
	return math.Float64frombits(math.Float64bits(v) & m)
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if len(r.mask) != dout.Size() {
		panic(staleBackward("ReLU", "elements", dout.Size(), len(r.mask)))
	}
	r.dx = tensor.EnsureShape(r.dx, dout.Shape()...)
	g := dout.Data
	dx, mask := r.dx.Data[:len(g)], r.mask[:len(g)]
	for i, v := range g {
		dx[i] = keepIf(v, mask[i])
	}
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y  *tensor.Tensor // cached output, doubling as the reusable out buffer
	dx *tensor.Tensor
}

// NewTanh creates a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward computes tanh(x).
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.y = tensor.EnsureShape(t.y, x.Shape()...)
	for i, v := range x.Data {
		t.y.Data[i] = math.Tanh(v)
	}
	return t.y
}

// Backward computes dout · (1 - tanh²(x)).
func (t *Tanh) Backward(dout *tensor.Tensor) *tensor.Tensor {
	t.dx = tensor.EnsureShape(t.dx, dout.Shape()...)
	dx := t.dx
	for i, v := range dout.Data {
		y := t.y.Data[i]
		dx.Data[i] = v * (1 - y*y)
	}
	return dx
}

// Params returns nil: Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

// sigmoid is the logistic function 1/(1+e^-x), the LSTM's gate activation.
func sigmoid(x float64) float64 {
	// Split by sign for numerical stability at large |x|.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
