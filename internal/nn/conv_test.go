package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// refConvForward is the convolution forward the layer used before
// tensor.ConvForward: im2col every sample into a (B·OH·OW, InC·K²) matrix,
// multiply by the kernel transposed, add the bias per column, and transpose
// each sample's (OH·OW, OutC) block into the channel-major output. It lives
// here so the production code has one conv forward and the tests have an
// independent one to hold it to, bit for bit.
func refConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	bsz := x.Dim(0)
	ohw := c.OutH * c.OutW
	ickk := c.InC * c.K * c.K
	cols := tensor.New(bsz*ohw, ickk)
	for b := 0; b < bsz; b++ {
		refIm2col(c, x.Row(b), cols.Data[b*ohw*ickk:(b+1)*ohw*ickk])
	}
	prod := tensor.MatMulTransBInto(tensor.New(bsz*ohw, c.OutC), cols, c.w.W)
	prod.AddRowVector(c.b.W.Data)
	out := tensor.New(bsz, c.OutC*ohw)
	for b := 0; b < bsz; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < ohw; p++ {
				out.Data[(b*c.OutC+oc)*ohw+p] = prod.Data[(b*ohw+p)*c.OutC+oc]
			}
		}
	}
	return out
}

// refGatherDout transposes each sample's channel-major output gradient into
// the (B·OH·OW, OutC) matrix both reference backward halves multiply with.
func refGatherDout(c *Conv2D, dout *tensor.Tensor) *tensor.Tensor {
	ohw := c.OutH * c.OutW
	dmat := tensor.New(dout.Dim(0)*ohw, c.OutC)
	for b := 0; b < dout.Dim(0); b++ {
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < ohw; p++ {
				dmat.Data[(b*ohw+p)*c.OutC+oc] = dout.Data[(b*c.OutC+oc)*ohw+p]
			}
		}
	}
	return dmat
}

// refConvBackwardParams is the parameter-gradient half of the backward pass
// as the layer used to run it: gather dout into a (B·OH·OW, OutC) matrix,
// then dW += dmatᵀ·cols against the explicit im2col matrix and db += its
// column sums.
func refConvBackwardParams(c *Conv2D, x, dout, dw *tensor.Tensor, db []float64) {
	bsz := x.Dim(0)
	ohw := c.OutH * c.OutW
	ickk := c.InC * c.K * c.K
	cols := tensor.New(bsz*ohw, ickk)
	for b := 0; b < bsz; b++ {
		refIm2col(c, x.Row(b), cols.Data[b*ohw*ickk:(b+1)*ohw*ickk])
	}
	dmat := refGatherDout(c, dout)
	tensor.MatMulTransAAcc(dw, dmat, cols)
	tensor.AccumColSums(db, dmat)
}

// refIm2col expands one channel-major image (length InC·InH·InW) into dst
// (length OutH·OutW·InC·K²), a row per output position and a column per
// (channel, ky, kx) tap; out-of-bounds taps are 0. No layer builds this
// matrix: it is the building block of the reference forward and backward.
func refIm2col(c *Conv2D, img, dst []float64) {
	ickk := c.InC * c.K * c.K
	for oy := 0; oy < c.OutH; oy++ {
		for ox := 0; ox < c.OutW; ox++ {
			row := dst[(oy*c.OutW+ox)*ickk:]
			for ch := 0; ch < c.InC; ch++ {
				chImg := img[ch*c.InH*c.InW:]
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride - c.Pad + ky
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride - c.Pad + kx
						q := (ch*c.K+ky)*c.K + kx
						if iy < 0 || iy >= c.InH || ix < 0 || ix >= c.InW {
							row[q] = 0
						} else {
							row[q] = chImg[iy*c.InW+ix]
						}
					}
				}
			}
		}
	}
}

// refCol2im scatter-adds column gradients back into image space (the adjoint
// of refIm2col), testing every tap against the image bounds — the input
// gradient as the layer ran it before tensor.ConvBackwardInput.
func refCol2im(c *Conv2D, cols, img []float64) {
	ickk := c.InC * c.K * c.K
	for oy := 0; oy < c.OutH; oy++ {
		for ox := 0; ox < c.OutW; ox++ {
			row := cols[(oy*c.OutW+ox)*ickk:]
			for ch := 0; ch < c.InC; ch++ {
				chImg := img[ch*c.InH*c.InW:]
				for ky := 0; ky < c.K; ky++ {
					iy := oy*c.Stride - c.Pad + ky
					if iy < 0 || iy >= c.InH {
						continue
					}
					for kx := 0; kx < c.K; kx++ {
						ix := ox*c.Stride - c.Pad + kx
						if ix < 0 || ix >= c.InW {
							continue
						}
						chImg[iy*c.InW+ix] += row[(ch*c.K+ky)*c.K+kx]
					}
				}
			}
		}
	}
}

// refConvBackwardInput is the input gradient through the explicit matrices:
// gather dout into (B·OH·OW, OutC), multiply by the kernel, and refCol2im
// each sample's block into a zeroed image.
func refConvBackwardInput(c *Conv2D, dout *tensor.Tensor) *tensor.Tensor {
	bsz := dout.Dim(0)
	ohw := c.OutH * c.OutW
	ickk := c.InC * c.K * c.K
	dcols := tensor.MatMulInto(tensor.New(bsz*ohw, ickk), refGatherDout(c, dout), c.w.W)
	dx := tensor.New(bsz, c.InC*c.InH*c.InW)
	for b := 0; b < bsz; b++ {
		refCol2im(c, dcols.Data[b*ohw*ickk:(b+1)*ohw*ickk], dx.Row(b))
	}
	return dx
}

type convCase struct{ inC, inH, inW, outC, k, stride, pad int }

func (g convCase) String() string {
	return fmt.Sprintf("%dx%dx%d->%d/k%d/s%d/p%d", g.inC, g.inH, g.inW, g.outC, g.k, g.stride, g.pad)
}

// convCases are the benchmark model's two layers plus shapes chosen to miss
// every fast path: stride 2, pad 0/1/2, non-square images, OutC not a
// multiple of the 4-row micro-tile, OutH·OutW not a multiple of the 8-column
// one, output rows shorter than a panel, InC·K² over one and two k-blocks of
// 256, more positions than one NC block, padding wider than the kernel (whole
// windows in the border), stride wider than the kernel (input columns no
// window reads), and a 1×1 kernel. Random draws follow.
func convCases(rng *rand.Rand) []convCase {
	cases := []convCase{
		{1, 28, 28, 8, 3, 1, 1},
		{8, 14, 14, 16, 3, 1, 1},
		{3, 9, 11, 5, 3, 2, 1},
		{2, 7, 9, 6, 3, 1, 0},
		{2, 6, 5, 3, 5, 1, 2},
		{1, 12, 8, 4, 5, 2, 2},
		{30, 6, 7, 7, 3, 1, 1},
		{8, 5, 5, 3, 9, 1, 4},
		{1, 3, 3, 1, 3, 1, 0},
		{1, 46, 47, 2, 3, 1, 1}, // 2,162 positions: two NC column blocks
		{1, 4, 4, 2, 3, 1, 3},
		{2, 9, 8, 3, 2, 3, 0},
		{3, 5, 6, 4, 1, 1, 0},
		{2, 5, 5, 3, 1, 2, 1},
	}
	for len(cases) < 29 {
		g := convCase{1 + rng.Intn(5), 3 + rng.Intn(10), 3 + rng.Intn(10), 1 + rng.Intn(9),
			1 + rng.Intn(5), 1 + rng.Intn(2), rng.Intn(3)}
		if g.inH+2*g.pad >= g.k && g.inW+2*g.pad >= g.k {
			cases = append(cases, g)
		}
	}
	return cases
}

// TestConvForwardMatchesIm2colReference holds the fused forward to the
// reference with ==, in both modes, serial and spread over the kernel pool.
func TestConvForwardMatchesIm2colReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range convCases(rng) {
		c := NewConv2D(rng, g.inC, g.inH, g.inW, g.outC, g.k, g.stride, g.pad)
		for i := range c.b.W.Data {
			c.b.W.Data[i] = rng.NormFloat64()
		}
		for _, bsz := range []int{1, 37, 250} {
			x := tensor.RandNormal(rng, 1, bsz, g.inC*g.inH*g.inW)
			want := refConvForward(c, x)
			for _, par := range []int{1, 3} {
				for _, train := range []bool{true, false} {
					prev := tensor.SetKernelParallelism(par)
					got := c.Forward(x, train)
					tensor.SetKernelParallelism(prev)
					if !got.SameShape(want) {
						t.Fatalf("%v batch %d: shape %v, want %v", g, bsz, got.Shape(), want.Shape())
					}
					for i, v := range got.Data {
						if v != want.Data[i] {
							t.Fatalf("%v batch %d par %d train %v: out[%d] = %v, reference %v",
								g, bsz, par, train, i, v, want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestConvBackwardParamsMatchesIm2colReference holds the fused parameter
// gradients to the reference with ==, accumulating onto non-zero gradients
// as an optimizer step that skipped ZeroGrad would, serial and with the
// reference's GEMM on the pool.
func TestConvBackwardParamsMatchesIm2colReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, g := range convCases(rng) {
		c := NewConv2D(rng, g.inC, g.inH, g.inW, g.outC, g.k, g.stride, g.pad)
		for _, bsz := range []int{1, 37, 250} {
			x := tensor.RandNormal(rng, 1, bsz, g.inC*g.inH*g.inW)
			dout := tensor.RandNormal(rng, 1, bsz, c.OutFeatures())
			dw0 := tensor.RandNormal(rng, 1, c.w.G.Shape()...)
			db0 := tensor.RandNormal(rng, 1, c.OutC)
			for _, par := range []int{1, 3} {
				prev := tensor.SetKernelParallelism(par)
				wantW, wantB := dw0.Clone(), db0.Clone()
				refConvBackwardParams(c, x, dout, wantW, wantB.Data)
				c.w.G.CopyFrom(dw0)
				c.b.G.CopyFrom(db0)
				c.Forward(x, true)
				c.backwardParams(dout)
				tensor.SetKernelParallelism(prev)
				for i, v := range c.w.G.Data {
					if v != wantW.Data[i] {
						t.Fatalf("%v batch %d par %d: dW[%d] = %v, reference %v", g, bsz, par, i, v, wantW.Data[i])
					}
				}
				for i, v := range c.b.G.Data {
					if v != wantB.Data[i] {
						t.Fatalf("%v batch %d par %d: db[%d] = %v, reference %v", g, bsz, par, i, v, wantB.Data[i])
					}
				}
			}
		}
	}
}

// TestConvBackwardInputMatchesCol2imReference holds Backward's input gradient
// to the bounds-tested scatter with ==. Each layer runs its batches back to
// back, 37 before 1 before 37, so dx, the column gradient and the kernel
// scratch's padded image are all reused dirty, larger and smaller.
func TestConvBackwardInputMatchesCol2imReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, g := range convCases(rng) {
		c := NewConv2D(rng, g.inC, g.inH, g.inW, g.outC, g.k, g.stride, g.pad)
		for pass, bsz := range []int{37, 1, 37} {
			x := tensor.RandNormal(rng, 1, bsz, g.inC*g.inH*g.inW)
			dout := tensor.RandNormal(rng, 1, bsz, c.OutFeatures())
			want := refConvBackwardInput(c, dout)
			c.Forward(x, true)
			got := c.Backward(dout)
			if !got.SameShape(want) {
				t.Fatalf("%v pass %d batch %d: shape %v, want %v", g, pass, bsz, got.Shape(), want.Shape())
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("%v pass %d batch %d: dx[%d] = %v, reference %v", g, pass, bsz, i, v, want.Data[i])
				}
			}
		}
	}
}

// TestConvForwardZeroAllocs: after one warm-up pass neither mode's Forward
// allocates, and neither does a full training step (Forward then Backward),
// on either conv layer of NewImageCNN, on the serial path or through the
// kernel pool.
func TestConvForwardZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	feat := NewImageCNN(ImageSpec{C: 1, H: 14, W: 14, Classes: 10}, 32)(1).Feature
	for _, l := range feat.Layers {
		c, ok := l.(*Conv2D)
		if !ok {
			continue
		}
		x := tensor.RandNormal(rng, 1, 32, c.InC*c.InH*c.InW)
		dout := tensor.RandNormal(rng, 1, 32, c.OutFeatures())
		for _, par := range []int{1, 4} {
			prev := tensor.SetKernelParallelism(par)
			for _, step := range []struct {
				name string
				run  func()
			}{
				{"eval Forward", func() { c.Forward(x, false) }},
				{"train Forward", func() { c.Forward(x, true) }},
				{"Forward+Backward", func() { c.Forward(x, true); c.Backward(dout) }},
			} {
				step.run()
				if allocs := testing.AllocsPerRun(10, step.run); allocs != 0 {
					t.Errorf("%dx%dx%d par %d: %s allocated %v times per call after warm-up, want 0",
						c.InC, c.InH, c.InW, par, step.name, allocs)
				}
			}
			tensor.SetKernelParallelism(prev)
		}
	}
}

// TestConvForwardConcurrentCallers runs several layers' forwards at once, each
// fanning out to the shared kernel pool, the way federation workers do: a
// caller that finds no idle pool worker must finish alone, and nobody may
// read another call's packed kernel or patches.
func TestConvForwardConcurrentCallers(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(2))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c := NewConv2D(rng, 3, 9, 10, 6, 3, 1, 1)
			for iter := 0; iter < 8; iter++ {
				x := tensor.RandNormal(rng, 1, 40+iter, 3*9*10) // ≥ 1 Mflop: takes the pool path
				want := refConvForward(c, x)
				got := c.Forward(x, iter%2 == 0)
				for i, v := range got.Data {
					if v != want.Data[i] {
						t.Errorf("caller %d iter %d: out[%d] = %v, reference %v", seed, iter, i, v, want.Data[i])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
