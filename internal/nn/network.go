package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Network is a model split into the feature mapping φ(·; w̃) and a
// classification head on top of it — the parameter decomposition
// w = (w̃, w̿) that the paper's distribution regularizer is defined on.
// The feature extractor's output (the activations of the last FC layer
// before the classifier) is exactly what the δ maps average.
type Network struct {
	Feature    *Sequential
	Head       Layer
	FeatureDim int

	params []*Param  // cached Params() result; the layer set is fixed
	flat   []float64 // the weights as one vector, once Flat or AdoptFlat ran
}

// NewNetwork assembles a network from a feature extractor producing
// featureDim-wide activations and a head.
func NewNetwork(feature *Sequential, head Layer, featureDim int) *Network {
	return &Network{Feature: feature, Head: head, FeatureDim: featureDim}
}

// Forward returns both the feature activations φ(x) and the logits.
func (n *Network) Forward(x *tensor.Tensor, train bool) (feat, logits *tensor.Tensor) {
	forwardPasses.Inc()
	feat = n.Feature.Forward(x, train)
	logits = n.Head.Forward(feat, train)
	return feat, logits
}

// Features runs only the feature extractor (evaluation mode).
func (n *Network) Features(x *tensor.Tensor) *tensor.Tensor {
	return n.Feature.Forward(x, false)
}

// Predict runs a full forward pass in evaluation mode and returns logits.
func (n *Network) Predict(x *tensor.Tensor) *tensor.Tensor {
	_, logits := n.Forward(x, false)
	return logits
}

// Backward accumulates gradients given the loss gradient with respect to
// the logits, plus an optional extra gradient with respect to the features
// (the distribution regularizer's contribution, which attaches at φ's
// output rather than at the logits).
// It panics when the network holds no gradient storage (AdoptGrads(nil)).
func (n *Network) Backward(dlogits, dfeatExtra *tensor.Tensor) {
	if ps := n.Params(); len(ps) > 0 && len(ps[0].G.Data) == 0 {
		panic("nn: Backward on a network without gradient storage; AdoptGrads a vector first")
	}
	backwardPasses.Inc()
	dfeat := n.Head.Backward(dlogits)
	if dfeatExtra != nil {
		dfeat.AddInPlace(dfeatExtra)
	}
	n.Feature.Backward(dfeat)
}

// Params returns all parameters, feature extractor first, then head. The
// flat-vector layout used for aggregation and transport follows this order.
// The slice is computed once and cached (a network's layer set never changes
// after construction); callers must not mutate it.
func (n *Network) Params() []*Param {
	if n.params == nil {
		n.params = append(append([]*Param(nil), n.Feature.Params()...), n.Head.Params()...)
	}
	return n.params
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int { return NumElements(n.Params()) }

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() { ZeroGrad(n.Params()) }

// GetFlat copies the parameters into a new flat vector.
func (n *Network) GetFlat() []float64 { return Flatten(n.Params()) }

// SetFlat loads parameters from a flat vector produced by GetFlat on a
// network with the same architecture.
func (n *Network) SetFlat(v []float64) { Unflatten(n.Params(), v) }

// Flat returns the weights themselves as one vector in Params order, not a
// copy: writing it writes the weights, and training writes it. The first call
// moves the builder's separate tensors onto one slice; later calls return it.
func (n *Network) Flat() []float64 {
	if n.flat == nil {
		n.AdoptFlat(n.GetFlat())
	}
	return n.flat
}

// AdoptFlat makes v the weights: every parameter tensor is re-pointed at its
// segment of v, nothing is copied, and the caller must stop using v as
// anything else. The Params and their gradients stay the same objects, so
// optimizer state survives. Adopting the vector Flat returns is a no-op.
func (n *Network) AdoptFlat(v []float64) {
	if len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: AdoptFlat size mismatch: params have %d elements, v has %d", n.NumParams(), len(v)))
	}
	if len(v) > 0 && len(n.flat) > 0 && &v[0] == &n.flat[0] {
		return
	}
	off := 0
	for _, p := range n.Params() {
		end := off + p.W.Size()
		p.W.Data = v[off:end:end]
		off = end
	}
	n.flat = v
}

// AdoptGrads makes v the gradient storage: every Param.G is re-pointed at its
// segment of v, in Params order, as AdoptFlat does for the weights. A nil v
// drops the storage: every G keeps its shape but holds no data, and Backward
// panics until a vector is adopted again. The caller keeps v and decides when
// it is free again.
func (n *Network) AdoptGrads(v []float64) {
	if v != nil && len(v) != n.NumParams() {
		panic(fmt.Sprintf("nn: AdoptGrads size mismatch: params have %d elements, v has %d", n.NumParams(), len(v)))
	}
	off := 0
	for _, p := range n.Params() {
		if v == nil {
			p.G.Data = nil
			continue
		}
		end := off + p.W.Size()
		p.G.Data = v[off:end:end]
		off = end
	}
}

// Builder constructs a fresh network of a fixed architecture from a seed.
// All worker replicas in a federated run are created through the same
// Builder with the same seed, so they agree on shapes and the flat layout.
type Builder func(seed int64) *Network
