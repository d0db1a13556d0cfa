package tensor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the persistent worker pool (pool.go) and the 2-D macro-tile GEMM
// schedule (gemm_parallel.go): correctness against the naive reference
// across tile-boundary shapes, the zero-steady-state-allocation invariant,
// deadlock freedom under concurrent top-level MatMul callers, and the
// index scheduling of ParallelFor.

// TestGemmParallel2DShapes drives every MatMul variant through the pool
// scheduler on shapes chosen to straddle every boundary of the 2-D schedule:
// single and multiple row tiles (MC=128), single and multiple column tiles
// (tileNC=128), slab-column edges (NC=2048, including a partial last column
// and exact multiples), multiple k-slabs (KC=256), and degenerate small-M /
// wide-N shapes — the case the old 1-D row split could not parallelize at
// all.
func TestGemmParallel2DShapes(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(8))
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{1, 300, 4096},  // one row, two full slab columns, multi-k-slab
		{4, 256, 2048},  // exact KC and NC boundaries
		{5, 257, 2049},  // one past each of those boundaries
		{128, 256, 128}, // exactly one MC×tileNC tile per slab
		{129, 512, 257}, // one past MC, two k-slabs, tileNC+1 columns
		{137, 53, 211},  // awkward everything (the 1-D path's old test)
		{32, 64, 2100},  // small-M, partial last column tile
		{300, 37, 96},   // wide-M, sliver k: pack wave nearly free
		{512, 1, 2048},  // k=1: slabs of a single packed row
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		if gemmWorkers(m, k, n) < 2 {
			t.Fatalf("shape %v does not reach the parallel path", s)
		}
		checkAllVariantsAgainstNaive(t, rng, m, k, n)
	}
}

// TestGemmParallelZeroAllocs proves the pool dispatch path allocates nothing
// in steady state: after one warm-up call (pool start, job and packedB
// growth, scratch growth), repeated parallel MatMulInto calls perform zero
// allocations.
func TestGemmParallelZeroAllocs(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(4))
	a, b := New(160, 256), New(256, 300)
	out := New(160, 300)
	rng := rand.New(rand.NewSource(7))
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	if gemmWorkers(160, 256, 300) < 2 {
		t.Fatal("warm-up shape does not reach the parallel path")
	}
	MatMulInto(out, a, b) // warm-up: pool, job free list, packedB, scratch
	allocs := testing.AllocsPerRun(10, func() {
		MatMulInto(out, a, b)
	})
	if allocs != 0 {
		t.Fatalf("parallel MatMulInto allocated %v times per call after warm-up, want 0", allocs)
	}
}

// TestConcurrentMatMulNoDeadlock runs several goroutines issuing parallel
// GEMMs at once. Each caller participates in its own job and pool workers
// are handed out first-come-first-served, so callers that find no free
// worker must still complete (degrading toward serial) rather than queue or
// deadlock; results must stay correct throughout.
func TestConcurrentMatMulNoDeadlock(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(4))
	const callers = 8
	const iters = 10
	rng := rand.New(rand.NewSource(23))
	a, b := New(64, 96), New(96, 512)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	want := refGemm(a, b, 64, 96, 512, false, false)
	tol := gemmTol(96)
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := New(64, 512)
			for it := 0; it < iters; it++ {
				MatMulInto(out, a, b)
				for i := range out.Data {
					if d := out.Data[i] - want.Data[i]; d > tol || d < -tol {
						errs <- "concurrent MatMul result diverged from reference"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// TestParallelFor checks the dynamic index scheduler: every index is visited
// exactly once for n below, equal to, and above the worker budget, and the
// degenerate cases do not dispatch.
func TestParallelFor(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(4))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1000} {
		visits := make([]atomic.Int32, n)
		ParallelFor(n, func(i int) { visits[i].Add(1) })
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("ParallelFor(%d): index %d visited %d times", n, i, v)
			}
		}
	}
	// Budget 1 takes the inline serial branch: indices run in order on the
	// calling goroutine, which a plain (non-atomic) append observes safely.
	SetKernelParallelism(1)
	var order []int
	ParallelFor(50, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("ParallelFor with budget 1: visit %d was index %d, want in-order serial execution", i, v)
		}
	}
	if len(order) != 50 {
		t.Fatalf("ParallelFor with budget 1 visited %d indices, want 50", len(order))
	}
}
