package engine

import (
	"math"
	"testing"
)

// finiteSliceRef is the predicate Finite replaced, one classified
// element at a time.
func finiteSliceRef(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func TestFiniteSliceMatchesPredicate(t *testing.T) {
	base := []float64{0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 1, -1e300}
	cases := [][]float64{nil, {}, base, base[:1], base[:3], base[:4], base[:5], base[:8]}
	// Each non-finite value at every position of the 9-vector covers the
	// unrolled body, its tail and both at once.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := range base {
			v := append([]float64(nil), base...)
			v[pos] = bad
			cases = append(cases, v, v[:pos+1], v[pos:])
		}
	}
	// Opposite infinities must not cancel, nor a NaN be lost among them.
	cases = append(cases, []float64{math.Inf(1), 0, 0, 0, math.Inf(-1)},
		[]float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)})
	for _, v := range cases {
		if got, want := Finite(v), finiteSliceRef(v); got != want {
			t.Errorf("Finite(%v) = %v, want %v", v, got, want)
		}
	}
}

func BenchmarkFiniteSlice(b *testing.B) {
	v := make([]float64, 8378) // device-pipe-1k's model
	for i := range v {
		v[i] = float64(i) * 1e-3
	}
	for _, bc := range []struct {
		name string
		fn   func([]float64) bool
	}{{"pass", Finite}, {"predicate", finiteSliceRef}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(v)))
			for i := 0; i < b.N; i++ {
				if !bc.fn(v) {
					b.Fatal("finite vector rejected")
				}
			}
		})
	}
}
