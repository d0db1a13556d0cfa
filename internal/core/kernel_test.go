package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestLinearKernelMMDMatchesMeanDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandNormal(rng, 1, 40, 6)
	b := tensor.RandNormal(rng, 1, 50, 6)
	for i := range b.Data {
		b.Data[i] += 0.5
	}
	// Under the linear kernel, kernel MMD² = ‖mean(a) - mean(b)‖² exactly.
	want := MMDSquaredMeans(tensor.ColMean(a), tensor.ColMean(b))
	got := KernelMMDSquared(LinearKernel{}, a, b)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("linear kernel MMD² = %v, mean distance² = %v", got, want)
	}
}

func TestRBFMMDZeroOnIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandNormal(rng, 1, 30, 4)
	if got := KernelMMDSquared(RBFKernel{Gamma: 1}, a, a.Clone()); got > 1e-14 {
		t.Fatalf("MMD²(a,a) = %v", got)
	}
}

// TestRBFMMDDetectsVarianceShift is the reason to have kernel MMD at all:
// two distributions with identical means but different spread are invisible
// to the paper's linear proxy but separated by the RBF kernel.
func TestRBFMMDDetectsVarianceShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandNormal(rng, 1.0, 300, 3)
	b := tensor.RandNormal(rng, 3.0, 300, 3) // same mean, larger variance
	// Center both samples so the mean difference is exactly zero and only
	// the spread differs.
	for _, x := range []*tensor.Tensor{a, b} {
		m := tensor.ColMean(x)
		for i := 0; i < x.Dim(0); i++ {
			row := x.Row(i)
			for j := range row {
				row[j] -= m[j]
			}
		}
	}
	gamma := MedianHeuristicGamma(a, b)
	rbf := KernelMMDSquared(RBFKernel{Gamma: gamma}, a, b)
	linear := KernelMMDSquared(LinearKernel{}, a, b)
	if rbf < 100*linear {
		t.Fatalf("RBF MMD² %v should dominate linear %v on a pure variance shift", rbf, linear)
	}
	if rbf < 0.01 {
		t.Fatalf("RBF MMD² %v too small to detect the shift", rbf)
	}
}

func TestMedianHeuristicGamma(t *testing.T) {
	a := tensor.FromSlice([]float64{0, 0, 3, 4}, 2, 2) // rows (0,0) and (3,4): dist 5
	b := tensor.FromSlice([]float64{0, 0}, 1, 2)
	g := MedianHeuristicGamma(a, b)
	// pairwise distances: 5, 0, 5 → median 5
	if g != 5 {
		t.Fatalf("median gamma = %v, want 5", g)
	}
	// Coinciding points fall back to 1.
	c := tensor.New(3, 2)
	if got := MedianHeuristicGamma(c, c); got != 1 {
		t.Fatalf("degenerate gamma = %v, want 1", got)
	}
}

// Property: kernel MMD² is symmetric and non-negative for both kernels.
func TestQuickKernelMMDProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		a := tensor.RandNormal(rng, 1, 2+rng.Intn(10), d)
		b := tensor.RandNormal(rng, 1, 2+rng.Intn(10), d)
		for _, k := range []Kernel{LinearKernel{}, RBFKernel{Gamma: 0.5 + rng.Float64()}} {
			ab := KernelMMDSquared(k, a, b)
			ba := KernelMMDSquared(k, b, a)
			if ab < 0 || math.Abs(ab-ba) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelNames(t *testing.T) {
	if (LinearKernel{}).Name() != "linear" || (RBFKernel{Gamma: 1}).Name() != "rbf" {
		t.Fatal("kernel names")
	}
}

func TestKernelMMDDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	KernelMMDSquared(LinearKernel{}, tensor.New(2, 3), tensor.New(2, 4))
}

func TestMedianSelection(t *testing.T) {
	if m := median([]float64{5, 1, 4, 2, 3}); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{2, 1}); m != 2 { // upper median for even n
		t.Fatalf("even median = %v", m)
	}
}
