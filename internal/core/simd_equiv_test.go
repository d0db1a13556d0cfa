package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Equivalence tests for the call sites rewired onto the SIMD elementwise
// kernels: each must match a private scalar reference. The AVX2 reductions
// use four accumulators plus FMA, so sums may differ from the left-to-right
// scalar order by a few ulps — tolerances scale with vector length. Dispatch
// is fixed at process init, so within one process results stay bitwise
// reproducible; these tests pin the scalar/SIMD agreement itself.

func scalarSqDist(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func scalarDot(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMMDSquaredMeansMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 4, 7, 8, 15, 64, 257, 1000} {
		a, b := randVec(rng, n), randVec(rng, n)
		got := MMDSquaredMeans(a, b)
		want := scalarSqDist(a, b)
		tol := 1e-13 * float64(n+1) * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: MMDSquaredMeans %v vs scalar %v (diff %v)", n, got, want, got-want)
		}
	}
}

func TestKernelEvalsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 5, 8, 33, 512} {
		x, y := randVec(rng, n), randVec(rng, n)
		if got, want := (LinearKernel{}).Eval(x, y), scalarDot(x, y); math.Abs(got-want) > 1e-12*float64(n+1) {
			t.Fatalf("n=%d: linear kernel %v vs scalar %v", n, got, want)
		}
		k := RBFKernel{Gamma: 1.3}
		want := math.Exp(-scalarSqDist(x, y) / (2 * k.Gamma * k.Gamma))
		if got := k.Eval(x, y); math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: rbf kernel %v vs scalar %v", n, got, want)
		}
	}
}

// TestPairwiseMMDIntoParallelMatchesSerial pins the parallel row fan-out
// against the serial path on a table big enough to cross pairwiseParMin,
// and checks symmetry and the zero diagonal.
func TestPairwiseMMDIntoParallelMatchesSerial(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(4))
	rng := rand.New(rand.NewSource(13))
	n, d := 48, 64 // 48·48·64 = 147456 > pairwiseParMin
	if n*n*d < pairwiseParMin {
		t.Fatal("table too small to exercise the parallel path")
	}
	tb := NewDeltaTable(n, d)
	for k := 0; k < n; k++ {
		tb.Set(k, randVec(rng, d))
	}
	got := tb.PairwiseMMDInto(nil)

	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*n+j] = math.Sqrt(scalarSqDist(tb.Get(i), tb.Get(j)))
		}
	}
	tol := 1e-12 * float64(d)
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("entry %d: parallel %v vs scalar %v", i, got[i], want[i])
		}
	}
	for i := 0; i < n; i++ {
		if got[i*n+i] != 0 {
			t.Fatalf("diagonal %d not zero: %v", i, got[i*n+i])
		}
		for j := 0; j < n; j++ {
			if got[i*n+j] != got[j*n+i] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

// TestRegFeatureGradMatchesScalar pins the axpy+scale rewrite of the shared
// per-row gradient against the original scalar formula.
func TestRegFeatureGradMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	b, d := 9, 37
	feat := tensor.New(b, d)
	for i := range feat.Data {
		feat.Data[i] = rng.NormFloat64()
	}
	target := randVec(rng, d)
	lambda := 0.35
	grad := regGrad(nn.NewArena(), feat, target, lambda)

	mean := tensor.ColMean(feat)
	scale := 2 * lambda / float64(b)
	tol := 1e-13
	for r := 0; r < b; r++ {
		row := grad.Row(r)
		for j := 0; j < d; j++ {
			want := scale * (mean[j] - target[j])
			if math.Abs(row[j]-want) > tol {
				t.Fatalf("row %d col %d: %v vs scalar %v", r, j, row[j], want)
			}
		}
	}
}
