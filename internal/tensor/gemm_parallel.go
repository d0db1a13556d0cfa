package tensor

// Parallel GEMM: the output is cut into one band of whole micro-tiles per
// worker — column bands, NR columns a tile, when there are at least as many
// column tiles as workers, otherwise row bands, MR rows a tile — and every
// band runs the serial blocking nest (gemmRange), packing its own B panels.
// Bands write disjoint tiles (a row tile that slides back only reads the
// rows before) and each output element sees the serial path's KC blocks in
// order, so the parallel product equals the serial one bit for bit.

// gemmParFlops is the minimum flop count (2·m·n·k) before a GEMM fans out
// to the pool.
const gemmParFlops = 1 << 20

// gemmWorkers decides the parallel width for an m×n×k GEMM: 1 (serial)
// below the work threshold or budget, otherwise the kernel budget capped by
// the number of tiles along the longer split.
func gemmWorkers(m, k, n int) int {
	workers := KernelParallelism()
	if workers <= 1 || 2*m*n*k < gemmParFlops {
		return 1
	}
	return min(workers, max((n+gemmNR-1)/gemmNR, (m+gemmMR-1)/gemmMR))
}

// gemmCall is one parallel GEMM, out += op(a)·op(b), cut into bands.
type gemmCall struct {
	out, a, b      *Tensor
	m, k, n        int
	transA, transB bool
	bands          int
}

// band computes band i of bands. The split falls back to rows only when
// there are fewer column tiles than bands, and gemmWorkers caps bands at
// the longer split, so no band is empty.
func (c *gemmCall) band(i int, s *gemmScratch) {
	if cols := (c.n + gemmNR - 1) / gemmNR; cols >= c.bands {
		lo, hi := i*cols/c.bands*gemmNR, min(c.n, (i+1)*cols/c.bands*gemmNR)
		gemmRange(c.out, c.a, c.b, c.k, c.n, c.transA, c.transB, 0, c.m, lo, hi, s)
		return
	}
	rows := (c.m + gemmMR - 1) / gemmMR
	lo, hi := i*rows/c.bands*gemmMR, min(c.m, (i+1)*rows/c.bands*gemmMR)
	gemmRange(c.out, c.a, c.b, c.k, c.n, c.transA, c.transB, lo, hi, 0, c.n, s)
}

// gemmParallel runs one GEMM as workers bands over the pool. The caller
// takes bands too, so a pool with no idle worker degrades to the serial
// path rather than queueing.
func gemmParallel(out, a, b *Tensor, m, k, n int, transA, transB bool, workers int) {
	j := jobGet(kindGemm, workers)
	j.gemm = gemmCall{out: out, a: a, b: b, m: m, k: k, n: n, transA: transA, transB: transB, bands: workers}
	s := gemmGetScratch()
	j.fanOut(workers, s)
	gemmPutScratch(s)
}
