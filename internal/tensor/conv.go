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

// convCall is one ConvForward invocation: the operands as flat slices plus
// the packed kernel, shared read-only by every goroutine working on it.
type convCall struct {
	g            ConvGeom
	out, x, bias []float64
	// pa holds the packed kernel: the panels of k-block [pc, pc+kc) start at
	// pa[mcp·pc], mcp being OutC rounded up to MR.
	pa  []float64
	mcp int
}

// ConvForward computes the convolution of every row of x (batch ×
// InC·InH·InW) with the kernel w (OutC × InC·K², taps ordered (c, ky, kx))
// plus bias (length OutC) into out (batch × OutC·OutH·OutW). Samples are
// independent, so large calls spread them over the kernel worker pool within
// the SetKernelParallelism budget; the result does not depend on the split.
func ConvForward(out, x, w *Tensor, bias []float64, g ConvGeom) {
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
	c := convCall{g: g, out: out.Data, x: x.Data, bias: bias, pa: s.a, mcp: mcp}
	if workers := min(KernelParallelism(), bsz); workers > 1 && flops >= gemmParFlops {
		j := jobGet()
		j.kind = kindConv
		j.conv, j.forN = c, bsz
		poolSubmit(j, workers-1)
		j.runConv(s)
		j.wait()
		jobPut(j)
	} else {
		for b := 0; b < bsz; b++ {
			c.sample(b, s)
		}
	}
	gemmPutScratch(s)
}

// runConv claims samples one at a time until the batch is done. Workers pack
// patches into their own scratch's b buffer; nobody writes c.pa (the caller's
// s.a) while the job runs.
func (j *kernelJob) runConv(s *gemmScratch) {
	n := int64(j.forN)
	for {
		b := j.forNext.Add(1) - 1
		if b >= n {
			return
		}
		j.conv.sample(int(b), s)
	}
}

// sample computes output row b. With a single k-block the row starts at the
// bias and the micro-kernel accumulates onto it; with several, it starts at
// zero and the bias goes on last, which is the order the unfused pipeline
// rounded in.
func (c *convCall) sample(b int, s *gemmScratch) {
	g := &c.g
	k, n := g.InC*g.K*g.K, g.OutH*g.OutW
	img := c.x[b*g.InC*g.InH*g.InW:][:g.InC*g.InH*g.InW]
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
			packPatches(s.b, img, g, pc, kc, jc, nc)
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

// patchRun is a run of consecutive columns of one packed panel that fall in
// the same output row: n columns starting at panel column c, whose top-left
// taps sit at image coordinates (iy, ix), ix advancing by Stride per column.
type patchRun struct{ c, n, iy, ix int }

// packPatches packs rows [pc, pc+kc) × columns [jc, jc+nc) of one image's
// patch matrix into dst in packB's layout (NR-wide k-major panels, zero
// padded past nc). Row (ch·K+ky)·K+kx, column oy·OutW+ox of that matrix is
// img[ch, oy·Stride−Pad+ky, ox·Stride−Pad+kx], or 0 outside the image. A
// panel's eight columns are consecutive output positions, so they split into
// at most a few runs along image rows, each with one row test per tap; at
// stride 1 a run that fills the panel inside the image is a straight copy.
func packPatches(dst, img []float64, g *ConvGeom, pc, kc, jc, nc int) {
	for jr := 0; jr < nc; jr += gemmNR {
		panel := dst[(jr/gemmNR)*kc*gemmNR:][:kc*gemmNR]
		nr := min(gemmNR, nc-jr)
		var runs [gemmNR]patchRun
		nruns := 0
		for c := 0; c < nr; nruns++ {
			oy, ox := (jc+jr+c)/g.OutW, (jc+jr+c)%g.OutW
			l := min(nr-c, g.OutW-ox)
			runs[nruns] = patchRun{c, l, oy*g.Stride - g.Pad, ox*g.Stride - g.Pad}
			c += l
		}
		ch, ky, kx := pc/(g.K*g.K), pc/g.K%g.K, pc%g.K
		for p := 0; p < kc; p++ {
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			plane := img[ch*g.InH*g.InW:][:g.InH*g.InW]
			for _, r := range runs[:nruns] {
				dd := d[r.c : r.c+r.n]
				iy, ix := r.iy+ky, r.ix+kx
				if iy < 0 || iy >= g.InH {
					clear(dd)
					continue
				}
				row := plane[iy*g.InW:][:g.InW]
				if g.Stride == 1 && r.n == gemmNR && ix >= 0 && ix+gemmNR <= g.InW {
					// A whole panel row inside the image, the common case:
					// eight moves beat a memmove call.
					src := row[ix : ix+gemmNR : ix+gemmNR]
					d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
					d[4], d[5], d[6], d[7] = src[4], src[5], src[6], src[7]
					continue
				}
				for c := range dd {
					if x := ix + c*g.Stride; x >= 0 && x < g.InW {
						dd[c] = row[x]
					} else {
						dd[c] = 0
					}
				}
			}
			for c := nr; c < gemmNR; c++ {
				d[c] = 0
			}
			if kx++; kx == g.K {
				if kx, ky = 0, ky+1; ky == g.K {
					ky, ch = 0, ch+1
				}
			}
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
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		ncp := (nc + gemmNR - 1) / gemmNR * gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			s.b = growFloats(s.b, kc*ncp)
			packTaps(s.b, x.Data, &g, pc, kc, jc, nc)
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

// packTaps packs rows [pc, pc+kc) × columns [jc, jc+nc) of the batch's
// transposed patch matrix into dst in packB's layout: row b·OutH·OutW+pos,
// column (ch·K+ky)·K+kx is x[b, ch, oy·Stride−Pad+ky, ox·Stride−Pad+kx], or
// 0 outside the image. A panel's eight taps sit at fixed offsets from the
// window's top-left corner, so a window wholly inside the image is eight
// loads at precomputed offsets; only border windows test each tap.
func packTaps(dst, x []float64, g *ConvGeom, pc, kc, jc, nc int) {
	ohw, plane := g.OutH*g.OutW, g.InH*g.InW
	for jr := 0; jr < nc; jr += gemmNR {
		panel := dst[(jr/gemmNR)*kc*gemmNR:][:kc*gemmNR]
		nr := min(gemmNR, nc-jr)
		var off, ky, kx [gemmNR]int
		for c := 0; c < nr; c++ {
			q := jc + jr + c
			ky[c], kx[c] = q/g.K%g.K, q%g.K
			off[c] = q/(g.K*g.K)*plane + ky[c]*g.InW + kx[c]
		}
		b, oy, ox := pc/ohw, pc%ohw/g.OutW, pc%ohw%g.OutW
		for p := 0; p < kc; p++ {
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			iy0, ix0 := oy*g.Stride-g.Pad, ox*g.Stride-g.Pad
			base := b*g.InC*plane + iy0*g.InW + ix0
			if iy0 >= 0 && iy0+g.K <= g.InH && ix0 >= 0 && ix0+g.K <= g.InW {
				src := x[base:]
				for c := 0; c < nr; c++ {
					d[c] = src[off[c]]
				}
			} else {
				for c := 0; c < nr; c++ {
					if iy, ix := iy0+ky[c], ix0+kx[c]; iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
						d[c] = x[base+off[c]]
					} else {
						d[c] = 0
					}
				}
			}
			for c := nr; c < gemmNR; c++ {
				d[c] = 0
			}
			if ox++; ox == g.OutW {
				if ox, oy = 0, oy+1; oy == g.OutH {
					oy, b = 0, b+1
				}
			}
		}
	}
}
