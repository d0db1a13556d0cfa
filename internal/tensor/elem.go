package tensor

import (
	"fmt"
	"math"
)

// This file is the elementwise/reduction kernel layer: flat []float64
// primitives (axpy, scale, add, subtract, scaled difference, sum, dot,
// squared distance) with a CPUID-dispatched AVX2 implementation and a
// pure-Go fallback, mirroring the GEMM micro-kernel split in gemm_amd64.s.
// The Tensor methods in ops.go and the MMD/δ paths in internal/core are thin
// wrappers over these, so every hot elementwise loop in the repository
// funnels through one vector kernel per operation.
//
// The AVX2 reductions (sum, dot, squared distance) use four parallel
// accumulators and the fused multiply-add, so their results differ from the
// sequential scalar loop by the usual reassociation ulps; callers that
// compare against a scalar recomputation must use a tolerance. Within one
// process the dispatch is fixed at init, so results stay bitwise
// reproducible run to run — the property the resume/retry determinism tests
// rely on.

// elemUseAVX2 gates the assembly elementwise kernels. It is a var, not a
// const, so the equivalence tests can force the pure-Go path on hardware
// that would normally never take it.
var elemUseAVX2 = gemmHasAsm && cpuHasAVX2FMA()

// elemSIMDMin is the minimum element count before dispatching to assembly:
// below one vector width the call overhead exceeds the scalar loop.
const elemSIMDMin = 4

func mustSameLen(op string, n, m int) {
	if n != m {
		panic(fmt.Sprintf("tensor: %s length mismatch %d vs %d", op, n, m))
	}
}

// AxpyFloats sets dst[i] += a*x[i] — the BLAS axpy primitive on raw slices.
// Every path rounds once per element, as the AVX2 kernel's fused multiply-add
// does, so an element's result does not depend on the length of the slice
// around it.
func AxpyFloats(dst []float64, a float64, x []float64) {
	mustSameLen("AxpyFloats", len(dst), len(x))
	if elemUseAVX2 && len(dst) >= elemSIMDMin {
		elemAxpyAVX2(&dst[0], &x[0], len(dst), a)
		return
	}
	for i, v := range x {
		dst[i] = math.FMA(a, v, dst[i])
	}
}

// ScaleFloats sets dst[i] *= a.
func ScaleFloats(dst []float64, a float64) {
	if elemUseAVX2 && len(dst) >= elemSIMDMin {
		elemScaleAVX2(&dst[0], len(dst), a)
		return
	}
	for i := range dst {
		dst[i] *= a
	}
}

// AddFloats sets dst[i] += x[i].
func AddFloats(dst, x []float64) {
	mustSameLen("AddFloats", len(dst), len(x))
	if elemUseAVX2 && len(dst) >= elemSIMDMin {
		elemAddAVX2(&dst[0], &x[0], len(dst))
		return
	}
	for i, v := range x {
		dst[i] += v
	}
}

// SubFloats sets dst[i] -= x[i].
func SubFloats(dst, x []float64) {
	mustSameLen("SubFloats", len(dst), len(x))
	if elemUseAVX2 && len(dst) >= elemSIMDMin {
		// fma(-1, x, dst): the multiply by −1 is exact, so this matches the
		// scalar subtraction bit for bit.
		elemAxpyAVX2(&dst[0], &x[0], len(dst), -1)
		return
	}
	for i, v := range x {
		dst[i] -= v
	}
}

// AddScaledDiffFloats sets dst[i] += (x[i] − y[i])·a. Every path subtracts,
// multiplies and adds with a rounding each, never fused, so the result is
// the plain Go loop's on any build.
func AddScaledDiffFloats(dst, x, y []float64, a float64) {
	mustSameLen("AddScaledDiffFloats", len(dst), len(x))
	mustSameLen("AddScaledDiffFloats", len(dst), len(y))
	if elemUseAVX2 && len(dst) >= elemSIMDMin {
		elemAddScaledDiffAVX2(&dst[0], &x[0], &y[0], len(dst), a)
		return
	}
	for i, v := range x {
		dst[i] += float64((v - y[i]) * a) // the conversion forbids fusing
	}
}

// SumFloats returns Σ x[i].
func SumFloats(x []float64) float64 {
	if elemUseAVX2 && len(x) >= elemSIMDMin {
		return elemSumAVX2(&x[0], len(x))
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// DotFloats returns ⟨x, y⟩ — the inner-product primitive behind Dot, Norm,
// and the linear MMD kernel.
func DotFloats(x, y []float64) float64 {
	mustSameLen("DotFloats", len(x), len(y))
	if elemUseAVX2 && len(x) >= elemSIMDMin {
		return elemDotAVX2(&x[0], &y[0], len(x))
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// SquaredDistanceFloats returns ‖x−y‖² — the distance primitive behind the
// empirical MMD, the RBF kernel, and per-client update norms.
func SquaredDistanceFloats(x, y []float64) float64 {
	mustSameLen("SquaredDistanceFloats", len(x), len(y))
	if elemUseAVX2 && len(x) >= elemSIMDMin {
		return elemSqdistAVX2(&x[0], &y[0], len(x))
	}
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}
