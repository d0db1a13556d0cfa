package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Tests for the PR's in-place kernel surface: the Into/Acc matmul variants
// must agree exactly with their allocating counterparts (serial and parallel
// paths), EnsureShape must reuse storage, and the aliasing guard must catch
// an output that shares storage with an input.

func randMat(rng *rand.Rand, r, c int) *Tensor {
	return RandNormal(rng, 1, r, c)
}

func tensorsEqual(t *testing.T, what string, got, want *Tensor, tol float64) {
	t.Helper()
	if got.Rank() != want.Rank() || got.Dim(0) != want.Dim(0) || got.Dim(1) != want.Dim(1) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > tol {
			t.Fatalf("%s: element %d is %g, want %g", what, i, got.Data[i], want.Data[i])
		}
	}
}

// checkMatMulVariants verifies all Into/Acc variants against the allocating
// kernels at the given sizes (run once serial and once above the parallel
// threshold).
func checkMatMulVariants(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	a := randMat(rng, m, k)
	b := randMat(rng, k, n)
	bt := randMat(rng, n, k) // for a·bᵀ
	at := randMat(rng, k, m) // for aᵀ·b

	tensorsEqual(t, "MatMulInto", MatMulInto(New(m, n), a, b), MatMul(a, b), 1e-12)
	tensorsEqual(t, "MatMulTransBInto", MatMulTransBInto(New(m, n), a, bt), MatMulTransB(a, bt), 1e-12)
	tensorsEqual(t, "MatMulTransAInto", MatMulTransAInto(New(m, n), at, b), MatMulTransA(at, b), 1e-12)

	// Acc variants: out preloaded with a base, result must be base + product.
	base := randMat(rng, m, n)
	want := Add(base, MatMul(a, b))
	tensorsEqual(t, "MatMulAcc", MatMulAcc(base.Clone(), a, b), want, 1e-12)
	want = Add(base, MatMulTransB(a, bt))
	tensorsEqual(t, "MatMulTransBAcc", MatMulTransBAcc(base.Clone(), a, bt), want, 1e-12)
	want = Add(base, MatMulTransA(at, b))
	tensorsEqual(t, "MatMulTransAAcc", MatMulTransAAcc(base.Clone(), at, b), want, 1e-12)

	// Into must fully overwrite garbage, not accumulate into it.
	dirty := New(m, n)
	for i := range dirty.Data {
		dirty.Data[i] = 1e9
	}
	tensorsEqual(t, "MatMulInto over garbage", MatMulInto(dirty, a, b), MatMul(a, b), 1e-12)
}

func TestMatMulVariantsSerial(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(1))
	checkMatMulVariants(t, rng, 7, 13, 5)
}

func TestMatMulVariantsParallel(t *testing.T) {
	prev := SetKernelParallelism(4)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(2))
	// 160×30×160 is 1.5 Mflop, past gemmParFlops, and 160 does not divide
	// evenly by 4 workers' chunking at every stage.
	checkMatMulVariants(t, rng, 160, 30, 160)
}

func TestSetKernelParallelismRoundTrip(t *testing.T) {
	prev := SetKernelParallelism(3)
	if got := KernelParallelism(); got != 3 {
		t.Errorf("KernelParallelism() = %d after SetKernelParallelism(3)", got)
	}
	if back := SetKernelParallelism(prev); back != 3 {
		t.Errorf("SetKernelParallelism returned %d, want 3", back)
	}
}

func TestMatMulIntoAliasPanics(t *testing.T) {
	a := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto(a, a, b) with aliased out did not panic")
		}
	}()
	MatMulInto(a, a, New(4, 4))
}

func TestEnsureShapeReuse(t *testing.T) {
	orig := New(4, 6)
	data := &orig.Data[0]

	// Same size: same tensor, same storage.
	got := EnsureShape(orig, 4, 6)
	if got != orig || &got.Data[0] != data {
		t.Fatal("EnsureShape with identical shape must return the same tensor and storage")
	}
	// Smaller (and different rank): storage reused, shape/len updated.
	got = EnsureShape(orig, 12)
	if got != orig || &got.Data[0] != data {
		t.Fatal("EnsureShape shrinking must reuse storage")
	}
	if got.Rank() != 1 || got.Dim(0) != 12 || len(got.Data) != 12 {
		t.Fatalf("EnsureShape(12): rank %d shape %v len %d", got.Rank(), got.Shape(), len(got.Data))
	}
	// Growing past capacity: fresh tensor.
	got = EnsureShape(orig, 5, 7)
	if got == orig || &got.Data[0] == data {
		t.Fatal("EnsureShape growing past capacity must allocate a fresh tensor")
	}
	if got.Dim(0) != 5 || got.Dim(1) != 7 {
		t.Fatalf("EnsureShape(5,7): shape %v", got.Shape())
	}
	// Nil input.
	got = EnsureShape(nil, 2, 3)
	if got == nil || got.Dim(0) != 2 || got.Dim(1) != 3 {
		t.Fatal("EnsureShape(nil, ...) must allocate")
	}
}

func TestElementwiseIntoVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 3, 5), randMat(rng, 3, 5)
	out := New(3, 5)

	tensorsEqual(t, "AddInto", AddInto(out, a, b), Add(a, b), 0)
	tensorsEqual(t, "SubInto", SubInto(out, a, b), Sub(a, b), 0)
	tensorsEqual(t, "ScaleInto", ScaleInto(out, a, 2.5), Scale(a, 2.5), 0)

	// Out may alias an input for the elementwise family.
	want := Add(a, b)
	tensorsEqual(t, "AddInto aliasing", AddInto(a, a, b), want, 0)
}

func TestAccumColSums(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMat(rng, 6, 4)
	want := ColSums(m)

	dst := []float64{1, 2, 3, 4}
	AccumColSums(dst, m)
	for j := range dst {
		if math.Abs(dst[j]-(want[j]+float64(j+1))) > 1e-12 {
			t.Fatalf("AccumColSums col %d = %g, want %g", j, dst[j], want[j]+float64(j+1))
		}
	}

	mean := make([]float64, 4)
	ColMeanInto(mean, m)
	for j := range mean {
		if math.Abs(mean[j]-want[j]/6) > 1e-12 {
			t.Fatalf("ColMeanInto col %d = %g, want %g", j, mean[j], want[j]/6)
		}
	}
}

// TestMatMulIntoAllocFree pins the zero-allocation property of the serial
// kernel path itself, independent of the fl-level tests.
func TestMatMulIntoAllocFree(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(rng, 16, 24), randMat(rng, 24, 8)
	out := New(16, 8)
	if allocs := testing.AllocsPerRun(20, func() { MatMulInto(out, a, b) }); allocs != 0 {
		t.Errorf("serial MatMulInto: %.1f allocs/op, want 0", allocs)
	}
}
