// Package nn implements the neural-network substrate used by the federated
// learning algorithms: layers with explicit forward/backward passes, a
// Sequential container, softmax-cross-entropy loss, and the Network type
// that splits a model into the feature mapping φ(·; w̃) and the
// classification head — the parameter split (w̃, w̿) that the paper's
// distribution regularizer is defined on.
//
// All inter-layer activations are rank-2 tensors of shape (batch, features).
// Layers that conceptually operate on images or token sequences (Conv2D,
// MaxPool2D, Embedding, LSTM) interpret the feature axis themselves; this
// keeps the Layer contract minimal and every backward pass independently
// checkable against numerical gradients.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable parameter tensor together with its gradient
// accumulator. Optimizers update W in place from G.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape()...)}
}

// Layer is a differentiable module. Forward consumes a (batch, in) tensor
// and returns a (batch, out) tensor; with train set it also caches whatever
// the backward pass needs. Backward consumes the loss gradient with respect
// to the output of the last training-mode Forward and returns the gradient
// with respect to its input, or nil for layers with no differentiable input
// (e.g. Embedding); parameter gradients are *accumulated* into Params().G,
// so callers must ZeroGrad between optimizer steps.
//
// An evaluation-mode Forward may cache nothing: Conv2D, ReLU and MaxPool2D
// drop their backward state on one, and their Backward panics rather than
// differentiate an older pass (see staleBackward).
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	Layers []Layer
}

// NewSequential constructs a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without forming the input gradient.
type paramBackwarder interface {
	backwardParams(dout *tensor.Tensor)
}

// Backward runs all layers in reverse order. Only the first layer may report
// no input gradient (nil) — and a first layer that can skip it does: nothing
// sits below a Sequential's first layer to consume that gradient, and for a
// Dense or Conv2D it costs a GEMM as large as the forward one. Parameter
// gradients are the same either way.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		if i == 0 {
			if pb, ok := s.Layers[0].(paramBackwarder); ok {
				pb.backwardParams(dout)
				return nil
			}
		}
		dout = s.Layers[i].Backward(dout)
		if dout == nil {
			if i != 0 {
				panic(fmt.Sprintf("nn: layer %d returned nil input gradient but is not first", i))
			}
			return nil
		}
	}
	return dout
}

// staleBackward is the panic message of a layer whose Backward does not match
// the state its last Forward cached: want is the size dout implies, have the
// size cached — 0 after an evaluation-mode Forward, which caches nothing.
func staleBackward(layer, unit string, want, have int) string {
	return fmt.Sprintf("nn: %s.Backward over %d %s, but the last Forward cached %d for it "+
		"(0: it ran in evaluation mode); run a training-mode Forward of this batch first",
		layer, want, unit, have)
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears the gradient accumulators of every parameter in ps.
func ZeroGrad(ps []*Param) {
	for _, p := range ps {
		p.G.Zero()
	}
}

// NumElements returns the total number of scalar parameters in ps.
func NumElements(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.W.Size()
	}
	return n
}

// FlattenTo copies all parameter values in ps into dst, which must have
// exactly NumElements(ps) entries. The layout is the order of ps.
func FlattenTo(dst []float64, ps []*Param) {
	off := 0
	for _, p := range ps {
		copy(dst[off:off+p.W.Size()], p.W.Data)
		off += p.W.Size()
	}
	if off != len(dst) {
		panic(fmt.Sprintf("nn: FlattenTo size mismatch: params have %d elements, dst has %d", off, len(dst)))
	}
}

// Flatten returns a freshly allocated flat copy of the parameter values.
func Flatten(ps []*Param) []float64 {
	out := make([]float64, NumElements(ps))
	FlattenTo(out, ps)
	return out
}

// Unflatten copies the flat vector src back into the parameter tensors.
func Unflatten(ps []*Param, src []float64) {
	off := 0
	for _, p := range ps {
		copy(p.W.Data, src[off:off+p.W.Size()])
		off += p.W.Size()
	}
	if off != len(src) {
		panic(fmt.Sprintf("nn: Unflatten size mismatch: params have %d elements, src has %d", off, len(src)))
	}
}

// FlattenGrads returns a freshly allocated flat copy of the gradients.
func FlattenGrads(ps []*Param) []float64 {
	out := make([]float64, NumElements(ps))
	off := 0
	for _, p := range ps {
		copy(out[off:off+p.G.Size()], p.G.Data)
		off += p.G.Size()
	}
	return out
}
