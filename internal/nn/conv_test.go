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
		c.Im2col(x.Row(b), cols.Data[b*ohw*ickk:(b+1)*ohw*ickk])
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

// refConvBackwardParams is the parameter-gradient half of the backward pass
// as the layer used to run it: gather dout into a (B·OH·OW, OutC) matrix,
// then dW += dmatᵀ·cols against the explicit im2col matrix and db += its
// column sums.
func refConvBackwardParams(c *Conv2D, x, dout, dw *tensor.Tensor, db []float64) {
	bsz := x.Dim(0)
	ohw := c.OutH * c.OutW
	ickk := c.InC * c.K * c.K
	cols := tensor.New(bsz*ohw, ickk)
	dmat := tensor.New(bsz*ohw, c.OutC)
	for b := 0; b < bsz; b++ {
		c.Im2col(x.Row(b), cols.Data[b*ohw*ickk:(b+1)*ohw*ickk])
		for oc := 0; oc < c.OutC; oc++ {
			for p := 0; p < ohw; p++ {
				dmat.Data[(b*ohw+p)*c.OutC+oc] = dout.Data[(b*c.OutC+oc)*ohw+p]
			}
		}
	}
	tensor.MatMulTransAAcc(dw, dmat, cols)
	tensor.AccumColSums(db, dmat)
}

type convCase struct{ inC, inH, inW, outC, k, stride, pad int }

func (g convCase) String() string {
	return fmt.Sprintf("%dx%dx%d->%d/k%d/s%d/p%d", g.inC, g.inH, g.inW, g.outC, g.k, g.stride, g.pad)
}

// convCases are the benchmark model's two layers plus shapes chosen to miss
// every fast path: stride 2, pad 0/1/2, non-square images, OutC not a
// multiple of the 4-row micro-tile, OutH·OutW not a multiple of the 8-column
// one, output rows shorter than a panel, InC·K² over one and two k-blocks of
// 256, and more positions than one NC block. Random draws follow.
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
	}
	for len(cases) < 25 {
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

// TestConvForwardZeroAllocs: after one warm-up pass neither mode allocates,
// on the serial path or through the kernel pool.
func TestConvForwardZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c := NewConv2D(rng, 8, 14, 14, 16, 3, 1, 1)
	x := tensor.RandNormal(rng, 1, 32, 8*14*14)
	for _, par := range []int{1, 4} {
		for _, train := range []bool{true, false} {
			prev := tensor.SetKernelParallelism(par)
			c.Forward(x, train)
			allocs := testing.AllocsPerRun(10, func() { c.Forward(x, train) })
			tensor.SetKernelParallelism(prev)
			if allocs != 0 {
				t.Fatalf("par %d train %v: Forward allocated %v times per call after warm-up, want 0", par, train, allocs)
			}
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
