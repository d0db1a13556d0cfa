package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the kernel worker pool (pool.go) and the banded parallel GEMM
// (gemm_parallel.go): the parallel product equals the serial blocking nest
// bit for bit at every budget, the zero-steady-state-allocation invariant,
// deadlock freedom under concurrent callers and on one processor, and the
// index scheduling of ParallelFor.

// TestGemmParallelMatchesSerial holds every parallel band split to the
// serial gemmRange with ==, for NN/NT/TN × Into/Acc (Acc from a random
// nonzero C) at budgets 2, 3, 4 and 8. A split that reassociated a sum —
// say, over k — would pass a tolerance but fails here. The shapes straddle
// the tile and block edges (MR=4, NR=8, MC=128, KC=256, NC=2048), include
// the dense layer's 8×196·512 forward and its two backward products, wide
// and tall outputs, row splits (fewer column tiles than bands) and a budget
// above the tile count. The shapes gemm reads in place and runs serially
// (the 8-row forward, the TN gradient) go to gemmParallel directly, so their
// band split stays covered. TestGemmParallel2DShapes and
// TestGemmParallelPath hold the edge shapes to the naive product.
func TestGemmParallelMatchesSerial(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(1))
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{1, 300, 4096},  // one row, two NC columns, two k-blocks
		{4, 256, 2048},  // exact KC and NC boundaries
		{5, 257, 2049},  // one past each of those boundaries
		{128, 256, 128}, // exactly MC rows
		{129, 512, 257}, // one past MC, two k-blocks, ragged last column tile
		{137, 53, 211},  // awkward everything
		{160, 300, 160}, // two k-blocks, MC+32 rows
		{32, 64, 2100},  // small m, partial last column tile
		{300, 37, 96},   // tall, short k
		{512, 1, 2048},  // k=1
		{8, 196, 512},   // dense forward x·W
		{196, 8, 512},   // its weight gradient xᵀ·dY (TN)
		{8, 512, 196},   // its input gradient dY·Wᵀ (NT)
		{400, 196, 512}, // a 400-row batch through the same layer
		{400, 300, 24},  // three column tiles: row bands at budget ≥ 4
		{20, 4096, 16},  // five row and two column tiles: budget 8 is capped
	}
	fill := func(r, c int) *Tensor { return RandNormal(rng, 1, r, c) }
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		b, bt := fill(k, n), fill(n, k)
		a, at := fill(m, k), fill(k, m)
		base := fill(m, n)
		s := gemmGetScratch()
		for _, v := range []struct {
			name           string
			a, b           *Tensor
			transA, transB bool
		}{{"NN", a, b, false, false}, {"NT", a, bt, false, true}, {"TN", at, b, true, false}} {
			for _, acc := range []bool{false, true} {
				want := base.Clone()
				if !acc {
					want.Zero()
				}
				gemmRange(want, v.a, v.b, k, n, v.transA, v.transB, 0, m, 0, n, s)
				for _, budget := range []int{2, 3, 4, 8} {
					SetKernelParallelism(budget)
					if gemmWorkers(m, k, n) < 2 {
						t.Fatalf("%v at budget %d does not reach the parallel path", sh, budget)
					}
					got := base.Clone()
					if !acc {
						got.Zero()
					}
					if gemmReadsInPlace(m, k, n, v.transA, v.transB) {
						// gemm runs this shape serially; split it anyway.
						gemmParallel(got, v.a, v.b, m, k, n, v.transA, v.transB, gemmWorkers(m, k, n))
					} else {
						gemm(got, v.a, v.b, m, k, n, v.transA, v.transB)
					}
					SetKernelParallelism(1)
					for i := range want.Data {
						if got.Data[i] != want.Data[i] {
							t.Fatalf("%s %v acc=%v budget %d: [%d] = %v, serial %v",
								v.name, sh, acc, budget, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
		gemmPutScratch(s)
	}
}

// TestGemmParallel2DShapes holds the banded parallel product at budget 8 to
// the naive product, for every variant, on shapes that straddle the tile and
// block edges (MR=4, NR=8, MC=128, KC=256, NC=2048).
func TestGemmParallel2DShapes(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(8))
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{1, 300, 4096},  // one row, two NC columns, two k-blocks
		{4, 256, 2048},  // exact KC and NC boundaries
		{5, 257, 2049},  // one past each of those boundaries
		{128, 256, 128}, // exactly MC rows
		{129, 512, 257}, // one past MC, two k-blocks, ragged last column tile
		{137, 53, 211},  // awkward everything
		{32, 64, 2100},  // small m, partial last column tile
		{300, 37, 96},   // tall, short k
		{512, 1, 2048},  // k=1
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		if gemmWorkers(m, k, n) < 2 {
			t.Fatalf("shape %v does not reach the parallel path", s)
		}
		checkAllVariantsAgainstNaive(t, rng, m, k, n)
	}
}

// TestKernelPoolOneProcessor runs the three parallel kernels — a MatMulInto,
// a ConvForward and a ParallelFor — at budget 4 under GOMAXPROCS(1): each
// must finish (the caller takes every task no worker got to) and equal its
// budget-1 result.
func TestKernelPoolOneProcessor(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(62))
	a, b := RandNormal(rng, 1, 64, 96), RandNormal(rng, 1, 96, 512)
	g := ConvGeom{InC: 3, InH: 16, InW: 16, OutC: 16, K: 3, Stride: 1, Pad: 1, OutH: 16, OutW: 16}
	x := RandNormal(rng, 1, 8, g.InC*g.InH*g.InW)
	w := RandNormal(rng, 1, g.OutC, g.InC*g.K*g.K)
	bias := RandNormal(rng, 1, 1, g.OutC).Data
	run := func() (mm, conv *Tensor, pf []float64) {
		mm = MatMulInto(New(64, 512), a, b)
		conv = New(8, g.OutC*g.OutH*g.OutW)
		ConvForward(conv, x, w, bias, g)
		pf = make([]float64, 1000)
		ParallelFor(len(pf), func(i int) { pf[i] = math.Sqrt(float64(i)) * a.Data[i%len(a.Data)] })
		return
	}
	wantMM, wantConv, wantPF := run()

	SetKernelParallelism(4)
	if gemmWorkers(64, 96, 512) < 2 || 2*8*g.OutC*g.OutH*g.OutW*g.InC*g.K*g.K < gemmParFlops {
		t.Fatal("the matmul or the convolution does not reach the parallel path")
	}
	done := make(chan struct{})
	var gotMM, gotConv *Tensor
	var gotPF []float64
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			gotMM, gotConv, gotPF = run()
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("parallel kernels at budget 4 did not finish within a minute under GOMAXPROCS(1)")
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"MatMulInto", gotMM.Data, wantMM.Data}, {"ConvForward", gotConv.Data, wantConv.Data}, {"ParallelFor", gotPF, wantPF}} {
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s: [%d] = %v at budget 4, %v at budget 1", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}

// TestGemmParallelZeroAllocs proves the pool dispatch path allocates nothing
// in steady state: after one warm-up call (pool start, job and scratch
// growth), repeated parallel MatMulInto calls perform zero allocations.
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
	MatMulInto(out, a, b) // warm-up: pool, job free list, scratch
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
