package tensor

import "fmt"

// This file is the convolution forward pass as a GEMM that never builds its
// B operand in memory. Per sample, out (OutC × OutH·OutW, already the
// channel-major layout the next layer reads) = kernel (OutC × InC·K²) ·
// patches (InC·K² × OutH·OutW) + bias. The kernel is packed once per call
// with packA; the patch matrix exists only as NR-wide packed panels that
// packPatches fills straight from the image, one sample at a time, so the
// working set is one image, one panel block and one output row whatever the
// batch size. gemmMacro and the micro-kernel are the ones every MatMul uses,
// and each output element is still bias + Σ_p w[p]·patch[p] accumulated in
// k order per KC block — the same bits the im2col → MatMulTransB → bias →
// transpose pipeline produced (internal/nn's tests keep that pipeline as the
// reference and compare with ==).
//
// Every pass that walks an image's patches — this one, the parameter
// gradients' packTaps, the input gradient's scatter — works on a zero-padded
// copy of the sample ((InH+2·Pad) × (InW+2·Pad) per channel, in the worker's
// kernel scratch). There the window of output position (oy, ox) has its
// corner at (oy·Stride, ox·Stride) and no tap of any window is outside the
// buffer, so a tap is an offset from the corner and nobody tests a
// coordinate.

// ConvGeom is the geometry of a square-kernel 2-D convolution over
// channel-major (c, y, x) images. OutH and OutW must be the values the other
// fields imply: (In + 2·Pad − K)/Stride + 1.
type ConvGeom struct {
	InC, InH, InW int
	OutC          int
	K             int // square kernel size
	Stride        int
	Pad           int
	OutH, OutW    int
}

// check panics unless g is a geometry the offset-table packers may trust:
// positive sizes, and OutH/OutW exactly what the other fields imply. An
// inconsistent one would index past the padded image into whatever a larger
// call left in the scratch.
func (g *ConvGeom) check(op string) {
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	if g.InC < 1 || g.InH < 1 || g.InW < 1 || g.OutC < 1 || g.K < 1 || g.Stride < 1 || g.Pad < 0 ||
		g.K > ph || g.K > pw || g.OutH != (ph-g.K)/g.Stride+1 || g.OutW != (pw-g.K)/g.Stride+1 {
		panic(fmt.Sprintf("tensor: %s: inconsistent geometry %+v", op, *g))
	}
}

// paddedSize is the length of one sample's zero-padded image.
func (g *ConvGeom) paddedSize() int { return g.InC * (g.InH + 2*g.Pad) * (g.InW + 2*g.Pad) }

// tapOffset is the distance in the padded image from a window's corner to
// its tap q = (ch·K+ky)·K+kx.
func (g *ConvGeom) tapOffset(q int) int {
	ph, pw := g.InH+2*g.Pad, g.InW+2*g.Pad
	return q/(g.K*g.K)*ph*pw + q/g.K%g.K*pw + q%g.K
}

// padCopy copies between one sample's image and the interior of its padded
// copy, row by row: image → padded, or padded → image when crop is set. It
// never writes the border; whoever needs zeros there clears padded first.
func padCopy(padded, img []float64, g *ConvGeom, crop bool) {
	pw := g.InW + 2*g.Pad
	for ch := 0; ch < g.InC; ch++ {
		for y := 0; y < g.InH; y++ {
			p := padded[(ch*(g.InH+2*g.Pad)+y+g.Pad)*pw+g.Pad:][:g.InW]
			r := img[(ch*g.InH+y)*g.InW:][:g.InW]
			if crop {
				copy(r, p)
			} else {
				copy(p, r)
			}
		}
	}
}

// convCall is one ConvForward invocation: the operands as flat slices plus
// the packed kernel and the tap offsets, shared read-only by every goroutine
// working on it.
type convCall struct {
	g            ConvGeom
	out, x, bias []float64
	// pa holds the packed kernel: the panels of k-block [pc, pc+kc) start at
	// pa[mcp·pc], mcp being OutC rounded up to MR.
	pa   []float64
	mcp  int
	taps []int // taps[q] = g.tapOffset(q)
}

// ConvForward computes the convolution of every row of x (batch ×
// InC·InH·InW) with the kernel w (OutC × InC·K², taps ordered (c, ky, kx))
// plus bias (length OutC) into out (batch × OutC·OutH·OutW). Samples are
// independent, so large calls spread them over the kernel worker pool within
// the SetKernelParallelism budget; the result does not depend on the split.
func ConvForward(out, x, w *Tensor, bias []float64, g ConvGeom) {
	g.check("ConvForward")
	k, n := g.InC*g.K*g.K, g.OutH*g.OutW
	bsz, inW := mustMatrix("ConvForward", "x", x)
	if ob, ow := mustMatrix("ConvForward", "out", out); inW != g.InC*g.InH*g.InW || ob != bsz || ow != g.OutC*n {
		panic(fmt.Sprintf("tensor: ConvForward x %v out %v for geometry %+v", x.shape, out.shape, g))
	}
	if wm, wk := mustMatrix("ConvForward", "w", w); wm != g.OutC || wk != k || len(bias) != g.OutC {
		panic(fmt.Sprintf("tensor: ConvForward kernel %v bias(%d) for geometry %+v", w.shape, len(bias), g))
	}
	flops := 2 * bsz * g.OutC * n * k
	gemmCalls.Inc()
	gemmFlops.Add(int64(flops))

	s := gemmGetScratch()
	mcp := (g.OutC + gemmMR - 1) / gemmMR * gemmMR
	s.a = growFloats(s.a, mcp*k)
	for pc := 0; pc < k; pc += gemmKC {
		packA(s.a[mcp*pc:], w.Data, k, false, 0, pc, g.OutC, min(gemmKC, k-pc))
	}
	if cap(s.taps) < k {
		s.taps = make([]int, k)
	}
	s.taps = s.taps[:k]
	for q := range s.taps {
		s.taps[q] = g.tapOffset(q)
	}
	c := convCall{g: g, out: out.Data, x: x.Data, bias: bias, pa: s.a, mcp: mcp, taps: s.taps}
	if workers := min(KernelParallelism(), bsz); workers > 1 && flops >= gemmParFlops {
		j := jobGet(kindConv, bsz)
		j.conv = c
		j.fanOut(workers, s)
	} else {
		for b := 0; b < bsz; b++ {
			c.sample(b, s)
		}
	}
	gemmPutScratch(s)
}

// sample computes output row b from a padded copy of image b. With a single
// k-block the row starts at the bias and the micro-kernel accumulates onto
// it; with several, it starts at zero and the bias goes on last, which is the
// order the unfused pipeline rounded in.
func (c *convCall) sample(b int, s *gemmScratch) {
	g := &c.g
	k, n := g.InC*g.K*g.K, g.OutH*g.OutW
	s.img = growFloats(s.img, g.paddedSize())
	clear(s.img)
	padCopy(s.img, c.x[b*g.InC*g.InH*g.InW:][:g.InC*g.InH*g.InW], g, false)
	orow := c.out[b*g.OutC*n:][:g.OutC*n]
	biasFirst := k <= gemmKC
	for oc := 0; oc < g.OutC; oc++ {
		v := 0.0
		if biasFirst {
			v = c.bias[oc]
		}
		plane := orow[oc*n : (oc+1)*n]
		for i := range plane {
			plane[i] = v
		}
	}
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncp := (nc + gemmNR - 1) / gemmNR * gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			s.b = growFloats(s.b, kc*ncp)
			packPatches(s.b, s.img, c.taps[pc:pc+kc], g, jc, nc)
			gemmMacro(orow, n, c.pa[c.mcp*pc:], s.b, 0, jc, g.OutC, nc, kc)
		}
	}
	if !biasFirst {
		for oc := 0; oc < g.OutC; oc++ {
			v := c.bias[oc]
			plane := orow[oc*n : (oc+1)*n]
			for i := range plane {
				plane[i] += v
			}
		}
	}
}

// packPatches packs the rows named by taps × columns [jc, jc+nc) of one
// padded image's patch matrix into dst in packB's layout (NR-wide k-major
// panels). Row (ch·K+ky)·K+kx, column oy·OutW+ox of that matrix is the padded
// image at the window corner (oy·Stride, ox·Stride) plus the row's tap
// offset, so a panel row is eight loads at the panel's eight corner offsets
// from one tap's base. Where packB pads the last panel with zeros, the
// columns past nc here repeat the image's first window: gemmMacro runs the
// micro-kernel on a partial tile's full width and drops those columns, so
// what they hold is never seen, and the loop over taps has no tail case.
func packPatches(dst, pimg []float64, taps []int, g *ConvGeom, jc, nc int) {
	kc, pw := len(taps), g.InW+2*g.Pad
	oy, ox := jc/g.OutW, jc%g.OutW
	for jr := 0; jr < nc; jr += gemmNR {
		panel := dst[(jr/gemmNR)*kc*gemmNR:][:kc*gemmNR]
		nr := min(gemmNR, nc-jr)
		var at [gemmNR]int
		for c := 0; c < nr; c++ {
			at[c] = (oy*pw + ox) * g.Stride
			if ox++; ox == g.OutW {
				ox, oy = 0, oy+1
			}
		}
		for p, t := range taps {
			d, src := panel[p*gemmNR:][:gemmNR], pimg[t:]
			d[0], d[1], d[2], d[3] = src[at[0]], src[at[1]], src[at[2]], src[at[3]]
			d[4], d[5], d[6], d[7] = src[at[4]], src[at[5]], src[at[6]], src[at[7]]
		}
	}
}

// ConvBackwardParams accumulates a convolution's parameter gradients from
// the output gradient dout (batch × OutC·OutH·OutW) and the forward input x:
// dw (OutC × InC·K²) += D·Pᵀ and dbias += row sums of D, where D is the
// OutC × batch·OutH·OutW matrix whose column b·OutH·OutW+pos is sample b's
// gradient at position pos — dout itself, read in place — and P the patch
// matrix of the whole batch, column for column. Like the forward, neither
// operand is materialised: the loop nest is gemmRange's, with packers that
// read dout and the images. The products, their order along the k axis
// (sample-major positions, KC at a time across sample boundaries) and the
// micro-kernel are those of MatMulTransAAcc over an explicit gathered
// gradient and im2col matrix, so the gradients are the same to the bit.
func ConvBackwardParams(dw *Tensor, dbias []float64, dout, x *Tensor, g ConvGeom) {
	g.check("ConvBackwardParams")
	n, ohw := g.InC*g.K*g.K, g.OutH*g.OutW
	bsz, inW := mustMatrix("ConvBackwardParams", "x", x)
	if dr, dc := mustMatrix("ConvBackwardParams", "dout", dout); inW != g.InC*g.InH*g.InW || dr != bsz || dc != g.OutC*ohw {
		panic(fmt.Sprintf("tensor: ConvBackwardParams x %v dout %v for geometry %+v", x.shape, dout.shape, g))
	}
	if wm, wk := mustMatrix("ConvBackwardParams", "dw", dw); wm != g.OutC || wk != n || len(dbias) != g.OutC {
		panic(fmt.Sprintf("tensor: ConvBackwardParams dw %v dbias(%d) for geometry %+v", dw.shape, len(dbias), g))
	}
	m, k := g.OutC, bsz*ohw
	gemmCalls.Inc()
	gemmFlops.Add(2 * int64(m) * int64(n) * int64(k))

	s := gemmGetScratch()
	isz, psz := g.InC*g.InH*g.InW, g.paddedSize()
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncp := (nc + gemmNR - 1) / gemmNR * gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			// Pad the samples this k-block's positions belong to, and no
			// more: a block is a few images, not the batch.
			b0, b1 := pc/ohw, (pc+kc-1)/ohw
			s.img = growFloats(s.img, (b1-b0+1)*psz)
			clear(s.img)
			for b := b0; b <= b1; b++ {
				padCopy(s.img[(b-b0)*psz:][:psz], x.Data[b*isz:][:isz], &g, false)
			}
			s.b = growFloats(s.b, kc*ncp)
			packTaps(s.b, s.img, &g, pc-b0*ohw, kc, jc, nc)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				mcp := (mc + gemmMR - 1) / gemmMR * gemmMR
				s.a = growFloats(s.a, mcp*kc)
				packOutGrad(s.a, dout.Data, g.OutC, ohw, ic, pc, mc, kc)
				gemmMacro(dw.Data, n, s.a, s.b, ic, jc, mc, nc, kc)
			}
		}
	}
	gemmPutScratch(s)

	// dbias[oc] += Σ_b Σ_pos dout[b, oc, pos], added one at a time in that
	// order; four channels at once keep four independent add chains going.
	for b := 0; b < bsz; b++ {
		row := dout.Data[b*g.OutC*ohw:][:g.OutC*ohw]
		oc := 0
		for ; oc+4 <= g.OutC; oc += 4 {
			p0, p1 := row[oc*ohw:][:ohw], row[(oc+1)*ohw:][:ohw]
			p2, p3 := row[(oc+2)*ohw:][:ohw], row[(oc+3)*ohw:][:ohw]
			a0, a1, a2, a3 := dbias[oc], dbias[oc+1], dbias[oc+2], dbias[oc+3]
			for i, v := range p0 {
				a0 += v
				a1 += p1[i]
				a2 += p2[i]
				a3 += p3[i]
			}
			dbias[oc], dbias[oc+1], dbias[oc+2], dbias[oc+3] = a0, a1, a2, a3
		}
		for ; oc < g.OutC; oc++ {
			a := dbias[oc]
			for _, v := range row[oc*ohw:][:ohw] {
				a += v
			}
			dbias[oc] = a
		}
	}
}

// packOutGrad packs rows [ic, ic+mc) × columns [pc, pc+kc) of the matrix D
// described at ConvBackwardParams into dst in packA's layout. A row of D is
// contiguous in dout within one sample, so each row is copied in per-sample
// stretches.
func packOutGrad(dst, dout []float64, outC, ohw, ic, pc, mc, kc int) {
	for ir := 0; ir < mc; ir += gemmMR {
		panel := dst[(ir/gemmMR)*kc*gemmMR:][:kc*gemmMR]
		mr := min(gemmMR, mc-ir)
		for r := 0; r < mr; r++ {
			for p := 0; p < kc; {
				b, pos := (pc+p)/ohw, (pc+p)%ohw
				src := dout[(b*outC+ic+ir+r)*ohw+pos:][:min(kc-p, ohw-pos)]
				for i, v := range src {
					panel[(p+i)*gemmMR+r] = v
				}
				p += len(src)
			}
		}
		for r := mr; r < gemmMR; r++ {
			for p := 0; p < kc; p++ {
				panel[p*gemmMR+r] = 0
			}
		}
	}
}

// packTaps packs rows [pc, pc+kc) × columns [jc, jc+nc) of the transposed
// patch matrix of the padded images in pimg into dst in packB's layout: row
// b·OutH·OutW+pos, column (ch·K+ky)·K+kx is padded image b at the window
// corner (oy·Stride, ox·Stride) plus the tap's offset. A panel's eight taps
// sit at fixed offsets from that corner, so a panel row is eight loads at
// precomputed offsets; columns past nc repeat the corner itself (see
// packPatches).
func packTaps(dst, pimg []float64, g *ConvGeom, pc, kc, jc, nc int) {
	ohw, ph, pw := g.OutH*g.OutW, g.InH+2*g.Pad, g.InW+2*g.Pad
	for jr := 0; jr < nc; jr += gemmNR {
		panel := dst[(jr/gemmNR)*kc*gemmNR:][:kc*gemmNR]
		nr := min(gemmNR, nc-jr)
		var off [gemmNR]int
		for c := 0; c < nr; c++ {
			off[c] = g.tapOffset(jc + jr + c)
		}
		b, oy, ox := pc/ohw, pc%ohw/g.OutW, pc%ohw%g.OutW
		for p := 0; p < kc; p++ {
			d, src := panel[p*gemmNR:][:gemmNR], pimg[b*g.InC*ph*pw+(oy*pw+ox)*g.Stride:]
			d[0], d[1], d[2], d[3] = src[off[0]], src[off[1]], src[off[2]], src[off[3]]
			d[4], d[5], d[6], d[7] = src[off[4]], src[off[5]], src[off[6]], src[off[7]]
			if ox++; ox == g.OutW {
				if ox, oy = 0, oy+1; oy == g.OutH {
					oy, b = 0, b+1
				}
			}
		}
	}
}

// ConvBackwardInput turns the column gradient dcols (batch·OutH·OutW ×
// InC·K², a row per output position and a column per (c, ky, kx) tap — the
// output gradient times the kernel) into the input gradient dx (batch ×
// InC·InH·InW), overwriting it: every tap's gradient is added to the input
// element it read. Per sample the adds land in a zeroed padded image, border
// taps in the border, and the interior is copied out; each dx element
// receives its terms in (oy, ox, ky, kx) order.
func ConvBackwardInput(dx, dcols *Tensor, g ConvGeom) {
	g.check("ConvBackwardInput")
	ickk, ohw, isz := g.InC*g.K*g.K, g.OutH*g.OutW, g.InC*g.InH*g.InW
	bsz, dw := mustMatrix("ConvBackwardInput", "dx", dx)
	if cr, cw := mustMatrix("ConvBackwardInput", "dcols", dcols); dw != isz || cr != bsz*ohw || cw != ickk {
		panic(fmt.Sprintf("tensor: ConvBackwardInput dx %v dcols %v for geometry %+v", dx.shape, dcols.shape, g))
	}
	kk, ph, pw := g.K*g.K, g.InH+2*g.Pad, g.InW+2*g.Pad
	s := gemmGetScratch()
	s.img = growFloats(s.img, g.paddedSize())
	for b := 0; b < bsz; b++ {
		clear(s.img)
		cols := dcols.Data[b*ohw*ickk:][:ohw*ickk]
		for ch := 0; ch < g.InC; ch++ {
			plane := s.img[ch*ph*pw:][:ph*pw]
			for oy := 0; oy < g.OutH; oy++ {
				for ox := 0; ox < g.OutW; ox++ {
					taps := cols[(oy*g.OutW+ox)*ickk+ch*kk:][:kk]
					corner := (oy*pw + ox) * g.Stride
					for ky := 0; ky < g.K; ky++ {
						row := plane[corner+ky*pw:][:g.K]
						for kx, v := range taps[ky*g.K:][:g.K] {
							row[kx] += v
						}
					}
				}
			}
		}
		padCopy(s.img, dx.Data[b*isz:][:isz], &g, true)
	}
	gemmPutScratch(s)
}
