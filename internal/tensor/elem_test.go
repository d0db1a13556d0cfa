package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Equivalence tests for the elementwise/reduction kernels in elem.go: the
// AVX2 assembly path against the pure-Go loop, across lengths that cover the
// sub-vector tail (1..17), the unrolled-by-4 boundary (31..33), and long
// inputs. On hardware without AVX2 both runs take the scalar path and the
// tests degrade to self-consistency checks — forcing elemUseAVX2 on would
// execute illegal instructions, so only the off direction is forced.

var elemTestLens = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 100, 1000}

// withElemPath runs fn once with the dispatch as built (AVX2 where
// available) and once forced to the pure-Go loop, returning both results.
func withElemPath[T any](t *testing.T, fn func() T) (simd, scalar T) {
	t.Helper()
	saved := elemUseAVX2
	defer func() { elemUseAVX2 = saved }()
	simd = fn()
	elemUseAVX2 = false
	scalar = fn()
	return simd, scalar
}

func elemTestVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// The in-place kernels (add, sub, scale, axpy) round once per element with
// no reassociation — axpy through a fused multiply-add on both paths — so the
// AVX2 path must match the scalar loop bit for bit.
func TestElemInPlaceKernelsMatchScalar(t *testing.T) {
	if !elemUseAVX2 {
		t.Log("AVX2 unavailable: comparing the scalar path against itself")
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range elemTestLens {
		x := elemTestVec(rng, n)
		base := elemTestVec(rng, n)
		ops := []struct {
			name  string
			apply func(dst []float64)
		}{
			{"AddFloats", func(dst []float64) { AddFloats(dst, x) }},
			{"SubFloats", func(dst []float64) { SubFloats(dst, x) }},
			{"ScaleFloats", func(dst []float64) { ScaleFloats(dst, 1.618) }},
			{"AxpyFloats", func(dst []float64) { AxpyFloats(dst, -0.73, x) }},
		}
		for _, op := range ops {
			simd, scalar := withElemPath(t, func() []float64 {
				dst := append([]float64(nil), base...)
				op.apply(dst)
				return dst
			})
			for i := range simd {
				if math.Float64bits(simd[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("%s n=%d: [%d] simd %v vs scalar %v", op.name, n, i, simd[i], scalar[i])
				}
			}
		}
	}
}

// AddScaledDiffFloats rounds as the unfused Go loop it replaced in the
// health monitor's direction sum, on both paths, at every tail length and at
// the sizes the monitor sees.
func TestAddScaledDiffMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lens := []int{4095, 4097, 8378}
	for n := 0; n <= 17; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		x, y, base := elemTestVec(rng, n), elemTestVec(rng, n), elemTestVec(rng, n)
		a := 1 / math.Sqrt(SquaredDistanceFloats(x, y)+1)
		want := append([]float64(nil), base...)
		for i := range want {
			want[i] += float64((x[i] - y[i]) * a)
		}
		simd, scalar := withElemPath(t, func() []float64 {
			dst := append([]float64(nil), base...)
			AddScaledDiffFloats(dst, x, y, a)
			return dst
		})
		for i := range want {
			if simd[i] != want[i] || scalar[i] != want[i] {
				t.Fatalf("n=%d: [%d] simd %v, scalar %v, Go loop %v", n, i, simd[i], scalar[i], want[i])
			}
		}
	}
}

// An axpy element's result does not depend on the slice around it: for every
// length up to two vector widths and every i, the call on dst[i:i+1] — the
// scalar loop — leaves what the full-slice call leaves in element i.
func TestAxpyElementIndependentOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 9; n++ {
		x, base := elemTestVec(rng, n), elemTestVec(rng, n)
		a := rng.NormFloat64()
		full := append([]float64(nil), base...)
		AxpyFloats(full, a, x)
		for i := range n {
			one := []float64{base[i]}
			AxpyFloats(one, a, x[i:i+1])
			if math.Float64bits(one[0]) != math.Float64bits(full[i]) {
				t.Fatalf("n=%d: element %d alone is %v, in the full slice %v", n, i, one[0], full[i])
			}
		}
	}
}

// The reductions reassociate (four parallel accumulators + FMA on the AVX2
// path), so they match the sequential scalar loop only to within a few ulps
// per term; the tolerance scales with length and magnitude.
func TestElemReductionsMatchScalar(t *testing.T) {
	if !elemUseAVX2 {
		t.Log("AVX2 unavailable: comparing the scalar path against itself")
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range elemTestLens {
		x := elemTestVec(rng, n)
		y := elemTestVec(rng, n)
		reds := []struct {
			name string
			eval func() float64
		}{
			{"SumFloats", func() float64 { return SumFloats(x) }},
			{"DotFloats", func() float64 { return DotFloats(x, y) }},
			{"SquaredDistanceFloats", func() float64 { return SquaredDistanceFloats(x, y) }},
		}
		for _, red := range reds {
			simd, scalar := withElemPath(t, red.eval)
			tol := 1e-14 * float64(n+1) * (1 + math.Abs(scalar))
			if diff := math.Abs(simd - scalar); diff > tol {
				t.Fatalf("%s n=%d: simd %v vs scalar %v (|Δ|=%g > %g)",
					red.name, n, simd, scalar, diff, tol)
			}
		}
	}
}

// SubFloats documents that its AVX2 path (fma with a=−1) is exactly the
// scalar subtraction; spot-check the identity dst − x == dst + (−1·x) holds
// bitwise on values where a fused vs unfused product could differ.
func TestSubFloatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range elemTestLens {
		x := elemTestVec(rng, n)
		base := elemTestVec(rng, n)
		got := append([]float64(nil), base...)
		SubFloats(got, x)
		for i := range got {
			if want := base[i] - x[i]; got[i] != want {
				t.Fatalf("SubFloats n=%d: [%d] got %v want %v (not exact)", n, i, got[i], want)
			}
		}
	}
}
