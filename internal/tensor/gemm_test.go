package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the packed, blocked GEMM core: every public variant is
// checked against a deliberately naive reference over randomized and
// exhaustive awkward shapes (dims far from multiples of the 4×8 micro-tile
// and straddling the MC/KC/NC block boundaries), on both the serial and the
// parallel dispatch path. The reference is kept private to this test file so
// the production code has exactly one matmul implementation.

// refGemm computes op(a)·op(b) with the textbook triple loop.
func refGemm(a, b *Tensor, m, k, n int, transA, transB bool) *Tensor {
	at := func(i, p int) float64 {
		if transA {
			return a.Data[p*a.Dim(1)+i]
		}
		return a.Data[i*a.Dim(1)+p]
	}
	bt := func(p, j int) float64 {
		if transB {
			return b.Data[j*b.Dim(1)+p]
		}
		return b.Data[p*b.Dim(1)+j]
	}
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// gemmTol is the comparison tolerance: the blocked kernel may use fused
// multiply-add (one rounding instead of two per term), so results differ
// from the naive reference by a few ulps scaled by the reduction length.
func gemmTol(k int) float64 { return 1e-12 * math.Sqrt(float64(k)+1) }

func checkAllVariantsAgainstNaive(t *testing.T, rng *rand.Rand, m, k, n int) {
	t.Helper()
	tol := gemmTol(k)
	a := RandNormal(rng, 1, m, k)
	b := RandNormal(rng, 1, k, n)
	at := RandNormal(rng, 1, k, m)
	bt := RandNormal(rng, 1, n, k)
	base := RandNormal(rng, 1, m, n)

	type variant struct {
		name string
		got  *Tensor
		want *Tensor
	}
	addNaive := func(w *Tensor) *Tensor {
		out := base.Clone()
		for i := range out.Data {
			out.Data[i] += w.Data[i]
		}
		return out
	}
	wantNN := refGemm(a, b, m, k, n, false, false)
	wantNT := refGemm(a, bt, m, k, n, false, true)
	wantTN := refGemm(at, b, m, k, n, true, false)
	variants := []variant{
		{"MatMul", MatMul(a, b), wantNN},
		{"MatMulInto", MatMulInto(New(m, n), a, b), wantNN},
		{"MatMulAcc", MatMulAcc(base.Clone(), a, b), addNaive(wantNN)},
		{"MatMulTransB", MatMulTransB(a, bt), wantNT},
		{"MatMulTransBInto", MatMulTransBInto(New(m, n), a, bt), wantNT},
		{"MatMulTransBAcc", MatMulTransBAcc(base.Clone(), a, bt), addNaive(wantNT)},
		{"MatMulTransA", MatMulTransA(at, b), wantTN},
		{"MatMulTransAInto", MatMulTransAInto(New(m, n), at, b), wantTN},
		{"MatMulTransAAcc", MatMulTransAAcc(base.Clone(), at, b), addNaive(wantTN)},
	}
	for _, v := range variants {
		for i := range v.want.Data {
			if d := math.Abs(v.got.Data[i] - v.want.Data[i]); d > tol {
				t.Fatalf("%s at (%d,%d,%d): element %d is %g, want %g (|Δ|=%g > %g)",
					v.name, m, k, n, i, v.got.Data[i], v.want.Data[i], d, tol)
			}
		}
	}
}

// TestGemmExhaustiveTiny sweeps every m,n ∈ {1,…,17} — all the partial
// micro-tile patterns of the 4×8 kernel — at reduction depths on both sides
// of the packing unroll, for all nine variants on the serial path.
func TestGemmExhaustiveTiny(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(11))
	for m := 1; m <= 17; m++ {
		for n := 1; n <= 17; n++ {
			for _, k := range []int{1, 2, 5, 16, 17} {
				checkAllVariantsAgainstNaive(t, rng, m, k, n)
			}
		}
	}
}

// TestGemmBlockBoundaries hits shapes that straddle the cache-blocking
// boundaries: k crossing KC=256 (two packed panel iterations, accumulation
// across panels), m crossing MC=128, and n crossing NC=2048.
func TestGemmBlockBoundaries(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(12))
	shapes := [][3]int{
		{3, 255, 5}, {3, 256, 5}, {3, 257, 5}, {2, 513, 3},
		{127, 9, 4}, {128, 9, 4}, {129, 9, 4}, {260, 7, 3},
		{2, 3, 2047}, {1, 2, 2048}, {2, 3, 2049},
		{130, 258, 11},
	}
	for _, s := range shapes {
		checkAllVariantsAgainstNaive(t, rng, s[0], s[1], s[2])
	}
}

// TestGemmRandomShapes fuzzes shapes up to a few hundred in each dimension
// (bounded product so the naive reference stays fast), serial path.
func TestGemmRandomShapes(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		k := 1 + rng.Intn(300)
		n := 1 + rng.Intn(300)
		for m*k*n > 2_000_000 {
			m, k, n = (m+1)/2, (k+1)/2, (n+1)/2
		}
		checkAllVariantsAgainstNaive(t, rng, m, k, n)
	}
}

// TestGemmParallelPath forces multi-worker dispatch (work large enough to
// pass gemmParFlops) and verifies every variant still matches the
// reference: the bands must tile the output exactly with no overlap.
func TestGemmParallelPath(t *testing.T) {
	prev := SetKernelParallelism(4)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(14))
	// 137×53×211 is 3.1 Mflop ≥ gemmParFlops; 137 is not a multiple of any
	// tile or block size.
	for _, s := range [][3]int{{137, 53, 211}, {160, 300, 160}} {
		if gemmWorkers(s[0], s[1], s[2]) < 2 {
			t.Fatalf("shape %v does not reach the parallel path", s)
		}
		checkAllVariantsAgainstNaive(t, rng, s[0], s[1], s[2])
	}
}

// TestGemmScratchReuse pins the zero-allocation property of the serial
// kernel path: after one warm-up call per shape, the packing buffers come
// from the free list and nothing escapes, across all nine variants and
// across alternating shapes (shrinking reuses, it never reallocates).
func TestGemmScratchReuse(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(15))

	a, b := RandNormal(rng, 1, 48, 96), RandNormal(rng, 1, 96, 24)
	at, bt := RandNormal(rng, 1, 96, 48), RandNormal(rng, 1, 24, 96)
	out := New(48, 24)
	runs := []struct {
		name string
		fn   func()
	}{
		{"MatMulInto", func() { MatMulInto(out, a, b) }},
		{"MatMulAcc", func() { MatMulAcc(out, a, b) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(out, a, bt) }},
		{"MatMulTransBAcc", func() { MatMulTransBAcc(out, a, bt) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(out, at, b) }},
		{"MatMulTransAAcc", func() { MatMulTransAAcc(out, at, b) }},
	}
	for _, r := range runs {
		r.fn() // warm the free-list scratch for this shape
		if allocs := testing.AllocsPerRun(20, r.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on the serial path, want 0", r.name, allocs)
		}
	}

	// The small-batch shapes of a dense layer, which read their operands in
	// place: forward x·W and the weight gradient Xᵀ·dY.
	x, w := RandNormal(rng, 1, 8, 196), RandNormal(rng, 1, 196, 32)
	dy, y := RandNormal(rng, 1, 8, 32), New(8, 32)
	dw := New(196, 32)
	for _, r := range []struct {
		name string
		fn   func()
	}{
		{"MatMulInto 8×196·32", func() { MatMulInto(y, x, w) }},
		{"MatMulAcc 8×196·32", func() { MatMulAcc(y, x, w) }},
		{"MatMulTransAInto 196×8·32", func() { MatMulTransAInto(dw, x, dy) }},
		{"MatMulTransAAcc 196×8·32", func() { MatMulTransAAcc(dw, x, dy) }},
	} {
		if allocs := testing.AllocsPerRun(20, r.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", r.name, allocs)
		}
	}

	// Alternating shapes: the second shape is smaller in every packed
	// dimension, so the warm buffers must be resliced, not reallocated.
	small := New(8, 8)
	sa, sb := RandNormal(rng, 1, 8, 16), RandNormal(rng, 1, 16, 8)
	alternate := func() {
		MatMulInto(out, a, b)
		MatMulInto(small, sa, sb)
	}
	alternate()
	if allocs := testing.AllocsPerRun(20, alternate); allocs != 0 {
		t.Errorf("alternating shapes: %.1f allocs/op, want 0", allocs)
	}
}

// TestGemmInPlaceMatchesPacked holds every GEMM path to the fully packed
// pure-Go FMA kernel with ==: the public Into/Acc × NN/NT/TN entry points at
// kernel budget 1, and at budget 2 where the shape fans out, against
// gemmRange with the AVX2 kernel off, which packs both operands. The Go FMA
// kernel rounds as the assembly kernel does, so a path that reassociates a
// sum fails here even though every path shares one kernel. Acc starts from
// a random nonzero C. The rows cover every partial tile up to 17 (below 4
// op(A) stays packed, above it partial tiles slide), one and two MC blocks
// and a tall product; k lies on both sides of KC, and n ranges from under
// one tile through partial and whole tiles. Every operand ends at an
// inaccessible page where the OS allows, so an overread faults. Under
// purego both sides pack with the same Go kernel.
func TestGemmInPlaceMatchesPacked(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(1))
	rng := rand.New(rand.NewSource(49))
	mat := func(t *testing.T, r, c int) *Tensor {
		v := edgeFloats(t, r*c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return FromSlice(v, r, c)
	}
	var paths [4]int // B in place, B packed, both packed, parallel bands
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 100, 128, 129, 300} {
		ks, ns := []int{1, 8, 255, 256, 257, 600}, []int{3, 8, 10, 16, 48, 512}
		if m > 32 {
			ks, ns = []int{8, 255, 257}, []int{3, 10, 48}
		}
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			s := gemmGetScratch()
			defer gemmPutScratch(s)
			for _, k := range ks {
				for _, n := range ns {
					if k*n > 200_000 {
						continue // 600·512: three KC blocks are covered at n ≤ 48
					}
					b, bt := mat(t, k, n), mat(t, n, k)
					a, at := mat(t, m, k), mat(t, k, m)
					for _, v := range []struct {
						name           string
						a, b           *Tensor
						transA, transB bool
						into, acc      func(out, a, b *Tensor) *Tensor
					}{
						{"NN", a, b, false, false, MatMulInto, MatMulAcc},
						{"NT", a, bt, false, true, MatMulTransBInto, MatMulTransBAcc},
						{"TN", at, b, true, false, MatMulTransAInto, MatMulTransAAcc},
					} {
						inPlace := gemmReadsInPlace(m, k, n, v.transA, v.transB)
						budgets := []int{1}
						SetKernelParallelism(2)
						if !inPlace && gemmWorkers(m, k, n) > 1 {
							budgets = append(budgets, 2)
						}
						SetKernelParallelism(1)
						for _, acc := range []bool{false, true} {
							want := mat(t, m, n)
							c0 := want.Clone()
							if !acc {
								want.Zero()
							}
							prevAVX2, prevFMA := gemmUseAVX2, gemmUseFMA
							gemmUseAVX2, gemmUseFMA = false, gemmUseFMA || gemmUseAVX2
							gemmRange(want, v.a, v.b, k, n, v.transA, v.transB, 0, m, 0, n, s)
							gemmUseAVX2, gemmUseFMA = prevAVX2, prevFMA
							for _, budget := range budgets {
								SetKernelParallelism(budget)
								got := mat(t, m, n)
								copy(got.Data, c0.Data)
								switch {
								case budget > 1:
									paths[3]++
								case inPlace:
									paths[0]++
								case gemmUseAVX2 && m >= gemmMR:
									paths[1]++
								default:
									paths[2]++
								}
								if acc {
									v.acc(got, v.a, v.b)
								} else {
									v.into(got, v.a, v.b)
								}
								SetKernelParallelism(1)
								for i := range want.Data {
									if got.Data[i] != want.Data[i] {
										t.Fatalf("%s %d×%d·%d acc=%v budget %d: [%d] = %v, packed %v",
											v.name, m, k, n, acc, budget, i, got.Data[i], want.Data[i])
									}
								}
							}
						}
					}
				}
			}
		})
	}
	if gemmUseAVX2 && (paths[0] == 0 || paths[1] == 0) || paths[2] == 0 || paths[3] == 0 {
		t.Fatalf("a path went untested: %d B in place, %d B packed, %d both packed, %d banded", paths[0], paths[1], paths[2], paths[3])
	}
	t.Logf("%d B in place, %d B packed, %d both packed, %d banded", paths[0], paths[1], paths[2], paths[3])
}

// TestGemmInPlaceCounted checks that an in-place call is counted in the
// process-wide GEMM series like any other.
func TestGemmInPlaceCounted(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(50))
	a, b := RandNormal(rng, 1, 8, 196), RandNormal(rng, 1, 196, 32)
	calls, flops := gemmCalls.Value(), gemmFlops.Value()
	MatMulInto(New(8, 32), a, b)
	if dc, df := gemmCalls.Value()-calls, gemmFlops.Value()-flops; dc != 1 || df != 2*8*196*32 {
		t.Fatalf("one 8×196·32 call counted %d calls, %d flops; want 1, %d", dc, df, 2*8*196*32)
	}
}

// TestGemmPackedFloatsFleetRound pins tensor_gemm_packed_floats_total for
// the products one fleet-tcp client makes in a round at kernel budget 2:
// one local step of the 196→512→48→10 MLP at batch 8 — three forward
// products, each upper layer's weight and input gradients, and the first
// layer's weight gradient — then the δ pass over its 100-row shard. With AVX2 only op(B) is packed, and only where it is Wᵀ or a
// product too large to read in place; the scalar kernel packs both
// operands, in bands where the product fans out.
func TestGemmPackedFloatsFleetRound(t *testing.T) {
	defer SetKernelParallelism(SetKernelParallelism(2))
	rng := rand.New(rand.NewSource(51))
	want := int64(149_984)
	if !gemmUseAVX2 {
		want = 437_584
	}
	before := gemmPackedFloats.Value()
	for _, p := range []struct {
		m, k, n        int
		transA, transB bool
	}{
		{8, 196, 512, false, false},   // x·W1
		{8, 512, 48, false, false},    // h·W2
		{8, 48, 10, false, false},     // f·W3
		{48, 8, 10, true, false},      // fᵀ·dY
		{8, 10, 48, false, true},      // dY·W3ᵀ
		{512, 8, 48, true, false},     // hᵀ·dF
		{8, 48, 512, false, true},     // dF·W2ᵀ
		{196, 8, 512, true, false},    // xᵀ·dH
		{100, 196, 512, false, false}, // δ pass: X·W1
		{100, 512, 48, false, false},  // H·W2
	} {
		ar, ac, br, bc := p.m, p.k, p.k, p.n
		if p.transA {
			ar, ac = ac, ar
		}
		if p.transB {
			br, bc = bc, br
		}
		gemm(New(p.m, p.n), RandNormal(rng, 1, ar, ac), RandNormal(rng, 1, br, bc), p.m, p.k, p.n, p.transA, p.transB)
	}
	if got := gemmPackedFloats.Value() - before; got != want {
		t.Fatalf("one fleet client round packed %d floats, want %d", got, want)
	}
}

// TestGemmNoZeroSkip documents a semantic fix over the old naive kernel,
// which skipped a-elements equal to zero and therefore failed to propagate
// NaN/Inf from b: 0·NaN must be NaN in the product reduction.
func TestGemmNoZeroSkip(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	a := FromSlice([]float64{0, 1}, 1, 2)
	b := FromSlice([]float64{math.NaN(), 2}, 2, 1)
	if got := MatMul(a, b).Data[0]; !math.IsNaN(got) {
		t.Errorf("MatMul with 0·NaN term = %g, want NaN", got)
	}
}

// TestGemmScalarKernelMatchesSIMD runs the pure-Go scalar micro-kernels
// against the dispatched path (assembly where available), so the fallback
// used on other architectures is exercised on this one too.
func TestGemmScalarKernelMatchesSIMD(t *testing.T) {
	prev := SetKernelParallelism(1)
	defer SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(16))

	check := func(t *testing.T, m, k, n int) {
		t.Helper()
		checkAllVariantsAgainstNaive(t, rng, m, k, n)
	}
	run := func(name string, avx2, fma bool) {
		t.Run(name, func(t *testing.T) {
			if avx2 && !gemmUseAVX2 {
				t.Skip("AVX2 kernel not available on this machine")
			}
			prevAVX2, prevFMA := gemmUseAVX2, gemmUseFMA
			gemmUseAVX2, gemmUseFMA = avx2, fma
			defer func() { gemmUseAVX2, gemmUseFMA = prevAVX2, prevFMA }()
			for _, s := range [][3]int{{1, 1, 1}, {5, 9, 13}, {17, 31, 7}, {64, 128, 64}, {33, 257, 19}} {
				check(t, s[0], s[1], s[2])
			}
		})
	}
	run("scalar-fma", false, true)
	run("scalar-muladd", false, false)
	run("avx2", true, false)
}

// BenchmarkGemmSizes tracks the blocked kernel across representative shapes
// (the repo's dense forward/backward, conv-lowered products, and a large
// square); run with -benchmem to confirm the 0 B/op steady state.
func BenchmarkGemmSizes(b *testing.B) {
	prevPar := SetKernelParallelism(1)
	defer SetKernelParallelism(prevPar)
	rng := rand.New(rand.NewSource(17))
	for _, s := range [][3]int{{32, 64, 64}, {64, 128, 64}, {3136, 9, 8}, {256, 256, 256}} {
		m, k, n := s[0], s[1], s[2]
		a := RandNormal(rng, 1, m, k)
		x := RandNormal(rng, 1, k, n)
		out := New(m, n)
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, a, x)
			}
		})
	}
}
