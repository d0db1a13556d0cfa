package tensor

import (
	"math"
	"sync"
	"time"
)

// This file is the cache-blocked, register-tiled GEMM core behind every
// MatMul* entry point, after Goto & van de Geijn (BLIS): a 4×8 micro-kernel
// sweeps the output one MR×NR tile at a time inside three levels of cache
// blocks.
//
//	for jc over n step NC:          // B block   (KC×NC)  — L3 resident
//	  for pc over k step KC:        // packB once per (jc,pc)
//	    for ic over m step MC:      // A block   (MC×KC)  — L2 resident
//	      for jr over nc step NR:   // B micro-panel (KC×NR) — L1 resident
//	        for ir over mc step MR: // A micro-panel (MR×KC) — streamed
//	          microkernel            // MR×NR accumulators in registers
//
// On the AVX2 path the kernel takes op(A)'s strides, so op(A) is read where
// it lies — A row-major or, for Xᵀ·dY, column-major — and a partial row
// tile slides back to end at op(A)'s last row. op(B) is copied into NR-wide
// k-major panels by packB, zero-padded to whole tiles, which also folds the
// transpose of NT. When op(B) is B and the product is a small batch
// (gemmReadsInPlace), B is read in place too, its partial column tile
// sliding back the same way, and gemm runs it serially. The scalar kernel
// (no AVX2, or purego), and op(A) under MR rows, also pack op(A) into
// MR-wide panels (packA), and gemmMacro sweeps the two packed blocks.
//
// Every path rounds every element alike: an accumulator started at +0, one
// FMA per p in ascending order, one add into C per KC block, edge tiles
// through a zeroed stack tile. So which operands are packed, and how the
// output is split across workers (gemm_parallel.go), never changes a bit.
//
// Packing buffers come from a package-level free list (gemmScratch), so the
// steady-state kernel path allocates nothing — the same invariant the
// layer/arena scratch obeys (see DESIGN.md, "Memory model & buffer
// ownership").
//
// The AVX2 kernel (gemm_amd64.s, chosen once via CPUID) holds the tile in
// eight YMM accumulators and issues eight fused multiply-adds per B row.
// The pure-Go scalar kernel computes the same 4×8 tile as two 4×4 halves of
// 16 scalar accumulators — the most the scalar register file sustains
// before spills erase the unrolling win — using math.FMA only where an
// init-time probe shows it is hardware-fused (the software fallback is ~30×
// slower than mul+add).

// Register and cache blocking parameters for float64. MR×NR is the
// micro-tile: 4 rows × 8 columns (two 4-lane vectors). KC is chosen so one
// A micro-panel (MR·KC = 8 KiB) plus one B micro-panel (KC·NR = 16 KiB) sit
// in a 32 KiB L1d; MC so an A block (MC·KC = 256 KiB) stays L2-resident;
// NC bounds the packed B block (KC·NC = 4 MiB) to a slice of L3.
const (
	gemmMR = 4
	gemmNR = 8
	gemmKC = 256
	gemmMC = 128
	gemmNC = 2048
)

// gemmUseAVX2 gates the assembly micro-kernel: the build provides it
// (amd64) and the CPU and OS support AVX2, FMA, and YMM state saving.
var gemmUseAVX2 = gemmHasAsm && cpuHasAVX2FMA()

// gemmUseFMA selects the math.FMA scalar micro-kernel when the hardware
// fuses multiply-add; chosen once at init by timing (see fmaIsFast). Only
// consulted when the assembly kernel is unavailable.
var gemmUseFMA = fmaIsFast()

// gemmScratch is one worker's packing storage: a holds the packed A block
// (≤ MC×KC plus micro-tile padding), b the packed B block (≤ KC×NC plus
// padding). The convolution passes (conv.go) add img, one or a few samples'
// zero-padded images, and taps, a call's tap-offset table. Buffers grow on
// demand and are reused across calls via the free list below; they never
// shrink.
type gemmScratch struct {
	a, b, img []float64
	taps      []int
	next      *gemmScratch
}

// gemmPool is a free list of packing scratch. A sync.Pool would be the
// obvious choice, but the GC may clear one at any time, which would make the
// "0 allocs after warm-up" property of the hot path probabilistic; a plain
// mutex-guarded stack is deterministic and the lock is taken once per GEMM
// call (or once per worker for parallel calls), not per block.
var gemmPool struct {
	sync.Mutex
	head *gemmScratch
}

func gemmGetScratch() *gemmScratch {
	gemmPool.Lock()
	s := gemmPool.head
	if s != nil {
		gemmPool.head = s.next
	}
	gemmPool.Unlock()
	if s == nil {
		s = new(gemmScratch)
	}
	return s
}

func gemmPutScratch(s *gemmScratch) {
	gemmPool.Lock()
	s.next = gemmPool.head
	gemmPool.head = s
	gemmPool.Unlock()
}

// growFloats returns a slice of length n, reusing buf's storage when it has
// capacity (the steady state) and allocating otherwise.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// gemm computes out += op(a)·op(b) for an (m×n) output, where op transposes
// its argument when the corresponding flag is set: a is (m×k) row-major, or
// (k×m) when transA; b is (k×n) row-major, or (n×k) when transB. Callers
// wanting out = op(a)·op(b) zero out first (the MatMul*Into wrappers do).
// A product that reads both operands in place runs serially. Any other
// above a work threshold is cut into bands of whole output tiles that run
// this serial nest on the kernel worker pool (gemm_parallel.go), within the
// SetKernelParallelism budget; the bits do not depend on the split.
func gemm(out, a, b *Tensor, m, k, n int, transA, transB bool) {
	gemmCalls.Inc()
	gemmFlops.Add(2 * int64(m) * int64(n) * int64(k))
	if gemmReadsInPlace(m, k, n, transA, transB) {
		gemmRange(out, a, b, k, n, transA, transB, 0, m, 0, n, nil)
		return
	}
	if w := gemmWorkers(m, k, n); w > 1 {
		gemmParallel(out, a, b, m, k, n, transA, transB, w)
		return
	}
	s := gemmGetScratch()
	gemmRange(out, a, b, k, n, transA, transB, 0, m, 0, n, s)
	gemmPutScratch(s)
}

// gemmInPlaceMax is the largest op(A) row count, or TN reduction depth, at
// which gemm reads B in place. Below it a packed panel is used too few times
// to repay its copy: on a 2-vCPU x86-64 host, packing B for an 8×196·196×32
// product took 9.1 µs of the call's 12.5.
const gemmInPlaceMax = 16

// gemmReadsInPlace reports whether gemm reads op(B) in place as well as
// op(A): the AVX2 kernel is available, op(B) is B (its rows give the kernel 8
// contiguous columns), the output holds a 4×8 tile, and op(A) has few rows —
// or, for the weight gradient Xᵀ·dY, the reduction over the batch is short.
func gemmReadsInPlace(m, k, n int, transA, transB bool) bool {
	return gemmUseAVX2 && !transB && m >= gemmMR && n >= gemmNR &&
		(m <= gemmInPlaceMax || transA && k <= gemmInPlaceMax)
}

// gemmRange runs the blocking loop nest for output rows [loM, hiM) and
// columns [loN, hiN); n is out's width. s holds the packed blocks; a nil s
// reads B in place, which needs gemmReadsInPlace. The AVX2 path reads op(A)
// in place when hiM ≥ MR: hiM is m or a multiple of MR, so a partial row
// tile can slide back to rows [hiM−MR, hiM).
func gemmRange(out, a, b *Tensor, k, n int, transA, transB bool, loM, hiM, loN, hiN int, s *gemmScratch) {
	lda, ldb := a.shape[1], b.shape[1]
	rsa, csa := lda, 1 // op(A)[i,p] = a[i·rsa + p·csa]
	if transA {
		rsa, csa = 1, lda
	}
	inPlaceA := gemmUseAVX2 && hiM >= gemmMR
	if inPlaceA && k > 0 && hiN > loN {
		// The kernel's loads are unchecked: index the last element it reads
		// in each operand, so a short slice panics here, not overreads.
		_, _ = a.Data[(hiM-1)*rsa+(k-1)*csa], out.Data[(hiM-1)*n+hiN-1]
		if s == nil {
			_ = b.Data[(k-1)*ldb+hiN-1]
		}
	}
	for jc := loN; jc < hiN; jc += gemmNC {
		nc := min(gemmNC, hiN-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			if s != nil {
				s.b = growFloats(s.b, kc*((nc+gemmNR-1)/gemmNR*gemmNR))
				packB(s.b, b.Data, ldb, transB, pc, jc, kc, nc)
			}
			for ic := loM; ic < hiM; ic += gemmMC {
				mc := min(gemmMC, hiM-ic)
				if !inPlaceA {
					s.a = growFloats(s.a, (mc+gemmMR-1)/gemmMR*gemmMR*kc)
					packA(s.a, a.Data, lda, transA, ic, pc, mc, kc)
					gemmMacro(out.Data, n, s.a, s.b, ic, jc, mc, nc, kc)
					continue
				}
				for jr := jc; jr < jc+nc; jr += gemmNR {
					nr := min(gemmNR, jc+nc-jr)
					// B's micro-panel: packed, or B's own rows from column
					// j0, slid back so that the panel ends inside B.
					j0, bp, ldbp := jr, (*float64)(nil), gemmNR
					if s != nil {
						bp = &s.b[(jr-jc)*kc]
					} else {
						j0 = min(jr, hiN-gemmNR)
						bp, ldbp = &b.Data[pc*ldb+j0], ldb
					}
					for ir := ic; ir < ic+mc; ir += gemmMR {
						mr := min(gemmMR, hiM-ir)
						i0 := min(ir, hiM-gemmMR)
						ap := &a.Data[i0*rsa+pc*csa]
						if mr == gemmMR && nr == gemmNR {
							gemmMicroAVX2(kc, ap, rsa, csa, bp, ldbp, &out.Data[ir*n+jr], n)
							continue
						}
						// An edge tile adds only what no earlier tile covered.
						var tile [gemmMR * gemmNR]float64
						gemmMicroAVX2(kc, ap, rsa, csa, bp, ldbp, &tile[0], gemmNR)
						gemmAddTile(out.Data[i0*n+j0:], n, &tile, ir-i0, ir-i0+mr, jr-j0, jr-j0+nr)
					}
				}
			}
		}
	}
}

// packA copies the (mc × kc) block of op(A) with top-left corner (ic, pc)
// into dst as ⌈mc/MR⌉ micro-panels: panel s holds rows [s·MR, s·MR+MR) of
// the block laid out k-major, dst[s·kc·MR + p·MR + r]. Rows past mc are
// zero-padded so the micro-kernel never branches on a partial tile.
func packA(dst, a []float64, lda int, transA bool, ic, pc, mc, kc int) {
	gemmPackedFloats.Add(int64((mc + gemmMR - 1) / gemmMR * gemmMR * kc))
	if transA {
		// op(A)[i,p] = A[p,i]: a block row of A is contiguous across i, so
		// iterate p outer / r inner and both read and write stream.
		for ir := 0; ir < mc; ir += gemmMR {
			panel := dst[(ir/gemmMR)*kc*gemmMR:]
			mr := min(gemmMR, mc-ir)
			for p := 0; p < kc; p++ {
				src := a[(pc+p)*lda+ic+ir:]
				d := panel[p*gemmMR : p*gemmMR+gemmMR]
				for r := 0; r < mr; r++ {
					d[r] = src[r]
				}
				for r := mr; r < gemmMR; r++ {
					d[r] = 0
				}
			}
		}
		return
	}
	for ir := 0; ir < mc; ir += gemmMR {
		panel := dst[(ir/gemmMR)*kc*gemmMR:]
		mr := min(gemmMR, mc-ir)
		for r := 0; r < mr; r++ {
			src := a[(ic+ir+r)*lda+pc:]
			for p := 0; p < kc; p++ {
				panel[p*gemmMR+r] = src[p]
			}
		}
		for r := mr; r < gemmMR; r++ {
			for p := 0; p < kc; p++ {
				panel[p*gemmMR+r] = 0
			}
		}
	}
}

// packB copies the (kc × nc) block of op(B) with top-left corner (pc, jc)
// into dst as ⌈nc/NR⌉ micro-panels: panel s holds columns [s·NR, s·NR+NR)
// laid out k-major, dst[s·kc·NR + p·NR + c], zero-padded past nc.
func packB(dst, b []float64, ldb int, transB bool, pc, jc, kc, nc int) {
	gemmPackedFloats.Add(int64(kc * ((nc + gemmNR - 1) / gemmNR * gemmNR)))
	if transB {
		// op(B)[p,j] = B[j,p]: a row of B is contiguous across p, so
		// iterate j outer / p inner and reads stream.
		for jr := 0; jr < nc; jr += gemmNR {
			panel := dst[(jr/gemmNR)*kc*gemmNR:]
			nr := min(gemmNR, nc-jr)
			for c := 0; c < nr; c++ {
				src := b[(jc+jr+c)*ldb+pc:]
				for p := 0; p < kc; p++ {
					panel[p*gemmNR+c] = src[p]
				}
			}
			for c := nr; c < gemmNR; c++ {
				for p := 0; p < kc; p++ {
					panel[p*gemmNR+c] = 0
				}
			}
		}
		return
	}
	for jr := 0; jr < nc; jr += gemmNR {
		panel := dst[(jr/gemmNR)*kc*gemmNR:]
		nr := min(gemmNR, nc-jr)
		for p := 0; p < kc; p++ {
			src := b[(pc+p)*ldb+jc+jr:]
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			for c := 0; c < nr; c++ {
				d[c] = src[c]
			}
			for c := nr; c < gemmNR; c++ {
				d[c] = 0
			}
		}
	}
}

// gemmMacro sweeps the packed panels with the micro-kernel, accumulating
// into the (mc × nc) block of out whose top-left corner is (ic, jc). ldc is
// out's row stride. Interior tiles accumulate straight into out; edge tiles
// (partial in either dimension) go through a stack tile and scatter only
// the valid elements, so the micro-kernel itself never sees a partial tile.
func gemmMacro(out []float64, ldc int, pa, pb []float64, ic, jc, mc, nc, kc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		bp := pb[(jr/gemmNR)*kc*gemmNR:][: kc*gemmNR : kc*gemmNR]
		nr := min(gemmNR, nc-jr)
		for ir := 0; ir < mc; ir += gemmMR {
			ap := pa[(ir/gemmMR)*kc*gemmMR:][: kc*gemmMR : kc*gemmMR]
			mr := min(gemmMR, mc-ir)
			if mr == gemmMR && nr == gemmNR {
				gemmMicro(kc, ap, bp, out, (ic+ir)*ldc+jc+jr, ldc)
				continue
			}
			var tile [gemmMR * gemmNR]float64
			gemmMicro(kc, ap, bp, tile[:], 0, gemmNR)
			gemmAddTile(out[(ic+ir)*ldc+jc+jr:], ldc, &tile, 0, mr, 0, nr)
		}
	}
}

// gemmAddTile adds rows [i0, i1) × columns [j0, j1) of an edge tile into
// dst, where dst[i·ldc + j] lies under tile element (i, j). It is the one
// add of an edge tile into C, on the packed and the in-place path alike.
func gemmAddTile(dst []float64, ldc int, tile *[gemmMR * gemmNR]float64, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		d, t := dst[i*ldc:], tile[i*gemmNR:]
		for j := j0; j < j1; j++ {
			d[j] += t[j]
		}
	}
}

// gemmMicro accumulates one full MR×NR tile into out rows starting at
// element r0 with row stride ldc: out[r0 + i·ldc + j] += Σ_p ap[p·MR+i]·bp[p·NR+j].
// ap and bp are packed micro-panels of exactly kc·MR and kc·NR elements.
func gemmMicro(kc int, ap, bp []float64, out []float64, r0, ldc int) {
	if gemmUseAVX2 {
		gemmMicroAVX2(kc, &ap[0], 1, gemmMR, &bp[0], gemmNR, &out[r0], ldc)
		return
	}
	// Scalar fallback: the 4×8 tile as two 4×4 halves, 16 accumulators
	// each. The len-guarded loop heads let the compiler drop every bounds
	// check in the bodies.
	if gemmUseFMA {
		gemmMicroScalarFMA(ap, bp, out[r0:], 0, ldc)
		gemmMicroScalarFMA(ap, bp, out[r0:], 4, ldc)
	} else {
		gemmMicroScalarMulAdd(ap, bp, out[r0:], 0, ldc)
		gemmMicroScalarMulAdd(ap, bp, out[r0:], 4, ldc)
	}
}

// gemmMicroScalarFMA accumulates the 4×4 half-tile at column offset co
// (0 or 4) of a packed 4×8 tile position.
func gemmMicroScalarFMA(ap, bp []float64, c []float64, co, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	bph := bp[co:]
	for len(ap) >= gemmMR && len(bph) >= gemmMR {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bph[0], bph[1], bph[2], bph[3]
		c00 = math.FMA(a0, b0, c00)
		c01 = math.FMA(a0, b1, c01)
		c02 = math.FMA(a0, b2, c02)
		c03 = math.FMA(a0, b3, c03)
		c10 = math.FMA(a1, b0, c10)
		c11 = math.FMA(a1, b1, c11)
		c12 = math.FMA(a1, b2, c12)
		c13 = math.FMA(a1, b3, c13)
		c20 = math.FMA(a2, b0, c20)
		c21 = math.FMA(a2, b1, c21)
		c22 = math.FMA(a2, b2, c22)
		c23 = math.FMA(a2, b3, c23)
		c30 = math.FMA(a3, b0, c30)
		c31 = math.FMA(a3, b1, c31)
		c32 = math.FMA(a3, b2, c32)
		c33 = math.FMA(a3, b3, c33)
		ap = ap[gemmMR:]
		if len(bph) < gemmNR {
			break
		}
		bph = bph[gemmNR:]
	}
	c0 := c[co : co+4 : co+4]
	c0[0] += c00
	c0[1] += c01
	c0[2] += c02
	c0[3] += c03
	c1 := c[ldc+co : ldc+co+4 : ldc+co+4]
	c1[0] += c10
	c1[1] += c11
	c1[2] += c12
	c1[3] += c13
	c2 := c[2*ldc+co : 2*ldc+co+4 : 2*ldc+co+4]
	c2[0] += c20
	c2[1] += c21
	c2[2] += c22
	c2[3] += c23
	c3 := c[3*ldc+co : 3*ldc+co+4 : 3*ldc+co+4]
	c3[0] += c30
	c3[1] += c31
	c3[2] += c32
	c3[3] += c33
}

// gemmMicroScalarMulAdd is gemmMicroScalarFMA with separate multiply and
// add, for hardware where math.FMA falls back to its exact (slow) software
// path.
func gemmMicroScalarMulAdd(ap, bp []float64, c []float64, co, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	bph := bp[co:]
	for len(ap) >= gemmMR && len(bph) >= gemmMR {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bph[0], bph[1], bph[2], bph[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ap = ap[gemmMR:]
		if len(bph) < gemmNR {
			break
		}
		bph = bph[gemmNR:]
	}
	c0 := c[co : co+4 : co+4]
	c0[0] += c00
	c0[1] += c01
	c0[2] += c02
	c0[3] += c03
	c1 := c[ldc+co : ldc+co+4 : ldc+co+4]
	c1[0] += c10
	c1[1] += c11
	c1[2] += c12
	c1[3] += c13
	c2 := c[2*ldc+co : 2*ldc+co+4 : 2*ldc+co+4]
	c2[0] += c20
	c2[1] += c21
	c2[2] += c22
	c2[3] += c23
	c3 := c[3*ldc+co : 3*ldc+co+4 : 3*ldc+co+4]
	c3[0] += c30
	c3[1] += c31
	c3[2] += c32
	c3[3] += c33
}

// fmaSink keeps the calibration loops observable so the compiler cannot
// delete them.
var fmaSink float64

// fmaIsFast times a short fused-multiply-add loop against a mul+add loop.
// On hardware with a fused instruction the two are within a small factor of
// each other; the software-emulated math.FMA is >10× slower, so a generous
// 2× threshold is robust to timer noise. The probe costs a few microseconds,
// once per process.
func fmaIsFast() bool {
	const iters = 4096
	muladd := func() float64 {
		s, a, b := 0.0, 1.000000193, 0.999999874
		for i := 0; i < iters; i++ {
			s += a * b
			a *= b
		}
		return s
	}
	fma := func() float64 {
		s, a, b := 0.0, 1.000000193, 0.999999874
		for i := 0; i < iters; i++ {
			s = math.FMA(a, b, s)
			a *= b
		}
		return s
	}
	// Warm both paths, then take the best of three timings each.
	fmaSink += muladd() + fma()
	best := func(f func() float64) time.Duration {
		bestD := time.Duration(math.MaxInt64)
		for t := 0; t < 3; t++ {
			start := time.Now()
			fmaSink += f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	return best(fma) <= 2*best(muladd)
}
