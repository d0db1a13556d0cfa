package core

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// The paper adopts the *explicit-map* empirical MMD (Eq. 2): φ is the
// network's feature extractor and the discrepancy is the distance between
// feature means — equivalently, MMD under a linear kernel on the learned
// features. This file adds the general kernel MMD estimator from Gretton
// et al. as an extension: it measures distribution discrepancy beyond first
// moments, which the experiments use to verify that minimizing the linear
// proxy also shrinks the full-kernel discrepancy.

// Kernel is a positive-definite kernel on feature vectors.
type Kernel interface {
	Eval(x, y []float64) float64
	Name() string
}

// LinearKernel is k(x,y) = ⟨x,y⟩; kernel MMD under it reduces exactly to
// the paper's mean-distance form.
type LinearKernel struct{}

// Eval returns the inner product (SIMD dot kernel).
func (LinearKernel) Eval(x, y []float64) float64 {
	return tensor.DotFloats(x, y)
}

// Name returns "linear".
func (LinearKernel) Name() string { return "linear" }

// RBFKernel is the Gaussian kernel k(x,y) = exp(-‖x-y‖²/(2γ²)).
type RBFKernel struct {
	Gamma float64 // bandwidth γ; must be > 0
}

// Eval returns exp(-‖x-y‖²/(2γ²)) (SIMD squared-distance kernel).
func (k RBFKernel) Eval(x, y []float64) float64 {
	return math.Exp(-tensor.SquaredDistanceFloats(x, y) / (2 * k.Gamma * k.Gamma))
}

// Name returns "rbf".
func (k RBFKernel) Name() string { return "rbf" }

// MedianHeuristicGamma returns the median pairwise distance between the
// rows of a and b — the standard bandwidth choice for RBF MMD. It returns
// 1 when all points coincide.
func MedianHeuristicGamma(a, b *tensor.Tensor) float64 {
	rows := gatherRows(a, b)
	var dists []float64
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			dists = append(dists, euclid(rows[i], rows[j]))
		}
	}
	if len(dists) == 0 {
		return 1
	}
	// Median by partial selection (n is small in practice).
	m := median(dists)
	if m <= 0 {
		return 1
	}
	return m
}

// KernelMMDSquared returns the biased V-statistic estimate of MMD²
// between the row distributions of a and b under kernel k:
//
//	MMD² = mean k(a,a') + mean k(b,b') - 2·mean k(a,b).
//
// The biased estimator is non-negative by construction, which keeps the
// diagnostic monotone under minimization.
func KernelMMDSquared(k Kernel, a, b *tensor.Tensor) float64 {
	if a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("core: kernel MMD dims %d vs %d", a.Dim(1), b.Dim(1)))
	}
	na, nb := a.Dim(0), b.Dim(0)
	kaa, kbb, kab := 0.0, 0.0, 0.0
	for i := 0; i < na; i++ {
		for j := 0; j < na; j++ {
			kaa += k.Eval(a.Row(i), a.Row(j))
		}
	}
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			kbb += k.Eval(b.Row(i), b.Row(j))
		}
	}
	for i := 0; i < na; i++ {
		for j := 0; j < nb; j++ {
			kab += k.Eval(a.Row(i), b.Row(j))
		}
	}
	v := kaa/float64(na*na) + kbb/float64(nb*nb) - 2*kab/float64(na*nb)
	if v < 0 {
		v = 0 // numerical floor; the biased estimator is non-negative
	}
	return v
}

func gatherRows(ts ...*tensor.Tensor) [][]float64 {
	var rows [][]float64
	for _, t := range ts {
		for i := 0; i < t.Dim(0); i++ {
			rows = append(rows, t.Row(i))
		}
	}
	return rows
}

func euclid(x, y []float64) float64 {
	return math.Sqrt(tensor.SquaredDistanceFloats(x, y))
}

func median(xs []float64) float64 {
	// Simple selection by repeated partition (quickselect).
	n := len(xs)
	k := n / 2
	lo, hi := 0, n-1
	for lo < hi {
		p := partition(xs, lo, hi)
		switch {
		case p == k:
			return xs[k]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	pivot := xs[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if xs[j] < pivot {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	xs[i], xs[hi] = xs[hi], xs[i]
	return i
}
