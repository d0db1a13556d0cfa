package nn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b, with W of shape (in, out).
// The output and input-gradient buffers are owned by the layer and reused
// across steps, so neither Forward nor Backward allocates after warm-up.
type Dense struct {
	In, Out int
	w, b    *Param
	x       *tensor.Tensor // cached input for backward
	y, dx   *tensor.Tensor // reusable scratch
}

// NewDense creates a dense layer with Glorot-uniform weights and zero bias.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		w:   newParam("dense.w", tensor.GlorotUniform(rng, in, out, in, out)),
		b:   newParam("dense.b", tensor.New(out)),
	}
}

// Forward computes x·W + b.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d.x = x
	d.y = tensor.EnsureShape(d.y, x.Dim(0), d.Out)
	tensor.MatMulInto(d.y, x, d.w.W)
	d.y.AddRowVector(d.b.W.Data)
	return d.y
}

// Backward accumulates dW = xᵀ·dout and db = Σ dout, and returns
// dx = dout·Wᵀ.
func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(dout)
	d.dx = tensor.EnsureShape(d.dx, dout.Dim(0), d.In)
	return tensor.MatMulTransBInto(d.dx, dout, d.w.W)
}

// backwardParams is the parameter half of Backward.
func (d *Dense) backwardParams(dout *tensor.Tensor) {
	tensor.MatMulTransAAcc(d.w.G, d.x, dout)
	tensor.AccumColSums(d.b.G.Data, dout)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
