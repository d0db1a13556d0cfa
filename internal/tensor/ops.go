package tensor

import (
	"fmt"
	"math"
)

// The elementwise Tensor operations below are wrappers over the flat
// []float64 kernels in elem.go (AVX2-dispatched with a pure-Go fallback).
// The Into variants allow out to alias an operand; they detect the alias and
// pick the matching in-place kernel, falling back to copy-then-kernel when
// out is distinct storage.

// sameData reports whether two slices share a backing array start.
func sameData(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// Add returns t + u elementwise as a new tensor.
func Add(t, u *Tensor) *Tensor {
	mustSameShape("Add", t, u)
	out := New(t.shape...)
	copy(out.Data, t.Data)
	AddFloats(out.Data, u.Data)
	return out
}

// Sub returns t - u elementwise as a new tensor.
func Sub(t, u *Tensor) *Tensor {
	mustSameShape("Sub", t, u)
	out := New(t.shape...)
	copy(out.Data, t.Data)
	SubFloats(out.Data, u.Data)
	return out
}

// Scale returns a*t as a new tensor.
func Scale(t *Tensor, a float64) *Tensor {
	out := New(t.shape...)
	copy(out.Data, t.Data)
	ScaleFloats(out.Data, a)
	return out
}

// AddInto sets out = t + u elementwise and returns out. out may alias t or u.
func AddInto(out, t, u *Tensor) *Tensor {
	mustSameShape("AddInto", t, u)
	mustSameShape("AddInto", out, t)
	switch {
	case sameData(out.Data, t.Data):
		AddFloats(out.Data, u.Data)
	case sameData(out.Data, u.Data):
		AddFloats(out.Data, t.Data)
	default:
		copy(out.Data, t.Data)
		AddFloats(out.Data, u.Data)
	}
	return out
}

// SubInto sets out = t - u elementwise and returns out. out may alias t or u.
func SubInto(out, t, u *Tensor) *Tensor {
	mustSameShape("SubInto", t, u)
	mustSameShape("SubInto", out, t)
	switch {
	case sameData(out.Data, t.Data):
		SubFloats(out.Data, u.Data)
	case sameData(out.Data, u.Data):
		// out = t - out has no in-place kernel; the scalar loop is exact.
		for i := range t.Data {
			out.Data[i] = t.Data[i] - u.Data[i]
		}
	default:
		copy(out.Data, t.Data)
		SubFloats(out.Data, u.Data)
	}
	return out
}

// ScaleInto sets out = a*t and returns out. out may alias t.
func ScaleInto(out, t *Tensor, a float64) *Tensor {
	mustSameShape("ScaleInto", out, t)
	if !sameData(out.Data, t.Data) {
		copy(out.Data, t.Data)
	}
	ScaleFloats(out.Data, a)
	return out
}

// AddInPlace sets t += u.
func (t *Tensor) AddInPlace(u *Tensor) {
	mustSameShape("AddInPlace", t, u)
	AddFloats(t.Data, u.Data)
}

// SubInPlace sets t -= u.
func (t *Tensor) SubInPlace(u *Tensor) {
	mustSameShape("SubInPlace", t, u)
	SubFloats(t.Data, u.Data)
}

// ScaleInPlace sets t *= a.
func (t *Tensor) ScaleInPlace(a float64) {
	ScaleFloats(t.Data, a)
}

// Axpy sets t += a*u (the BLAS axpy primitive). It is the hot path of every
// optimizer step and of federated aggregation.
func (t *Tensor) Axpy(a float64, u *Tensor) {
	mustSameShape("Axpy", t, u)
	AxpyFloats(t.Data, a, u.Data)
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 { return SumFloats(t.Data) }

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Dot returns the inner product of t and u viewed as flat vectors.
func Dot(t, u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: Dot size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	return DotFloats(t.Data, u.Data)
}

// Norm returns the Euclidean (L2) norm of t viewed as a flat vector.
func (t *Tensor) Norm() float64 {
	return math.Sqrt(DotFloats(t.Data, t.Data))
}

// SquaredDistance returns ||t-u||² over the flattened elements.
func SquaredDistance(t, u *Tensor) float64 {
	if len(t.Data) != len(u.Data) {
		panic(fmt.Sprintf("tensor: SquaredDistance size mismatch %d vs %d", len(t.Data), len(u.Data)))
	}
	return SquaredDistanceFloats(t.Data, u.Data)
}

// MaxIndex returns the index of the largest element of a flat vector.
func MaxIndex(v []float64) int {
	best, arg := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, arg = x, i
		}
	}
	return arg
}

// ColMean returns the per-column mean of a rank-2 tensor (n×d → d). It is
// the δ (local feature map) primitive from the paper: the empirical mean of
// φ(x) over a client's samples.
func ColMean(t *Tensor) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ColMean on rank-%d tensor", len(t.shape)))
	}
	return ColMeanInto(make([]float64, t.shape[1]), t)
}

// ColMeanInto writes the per-column mean of a rank-2 tensor into dst, which
// must have length t.Dim(1), and returns dst.
func ColMeanInto(dst []float64, t *Tensor) []float64 {
	if len(t.shape) != 2 || len(dst) != t.shape[1] {
		panic(fmt.Sprintf("tensor: ColMeanInto dst(%d) for shape %v", len(dst), t.shape))
	}
	n := t.shape[0]
	for j := range dst {
		dst[j] = 0
	}
	AccumColSums(dst, t)
	ScaleFloats(dst, 1.0/float64(n))
	return dst
}

// AddRowVector adds the vector v to every row of the rank-2 tensor t in
// place (bias addition).
func (t *Tensor) AddRowVector(v []float64) {
	if len(t.shape) != 2 || t.shape[1] != len(v) {
		panic(fmt.Sprintf("tensor: AddRowVector %v + vec(%d)", t.shape, len(v)))
	}
	n, d := t.shape[0], t.shape[1]
	for i := 0; i < n; i++ {
		AddFloats(t.Data[i*d:(i+1)*d], v)
	}
}

// ColSums returns the per-column sum of a rank-2 tensor (bias gradient).
func ColSums(t *Tensor) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ColSums on rank-%d tensor", len(t.shape)))
	}
	out := make([]float64, t.shape[1])
	AccumColSums(out, t)
	return out
}

// AccumColSums adds the per-column sums of a rank-2 tensor into dst
// (dst[j] += Σ_i t[i][j]) — the allocation-free bias-gradient accumulator.
func AccumColSums(dst []float64, t *Tensor) {
	if len(t.shape) != 2 || len(dst) != t.shape[1] {
		panic(fmt.Sprintf("tensor: AccumColSums dst(%d) for shape %v", len(dst), t.shape))
	}
	n, d := t.shape[0], t.shape[1]
	for i := 0; i < n; i++ {
		AddFloats(dst, t.Data[i*d:(i+1)*d])
	}
}

func mustSameShape(op string, t, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, u.shape))
	}
}
