package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over channel-major images. The layer consumes
// rank-2 activations of shape (batch, InC·InH·InW) and produces
// (batch, OutC·OutH·OutW), where each sample is laid out channel-major
// (c, y, x). The forward pass and the parameter gradients are GEMMs whose
// patch operand is packed straight from the image (tensor.ConvForward,
// tensor.ConvBackwardParams); no im2col matrix is built for either. The
// input gradient is a plain GEMM followed by tensor.ConvBackwardInput.
type Conv2D struct {
	tensor.ConvGeom

	w, b *Param

	// x is the input of the last training-mode Forward, nil after an
	// evaluation-mode one: Backward differentiates exactly that pass.
	x *tensor.Tensor

	// Reusable scratch, sized on first use: the channel-major output, and
	// for the input gradient the gathered output gradient, the column
	// gradient, and the result.
	out, dmat, dcols, dx *tensor.Tensor
}

// NewConv2D creates a convolution layer with He-normal weights.
func NewConv2D(rng *rand.Rand, inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: Conv2D produces empty output for input %dx%d kernel %d stride %d pad %d",
			inH, inW, k, stride, pad))
	}
	fanIn := inC * k * k
	return &Conv2D{
		ConvGeom: tensor.ConvGeom{
			InC: inC, InH: inH, InW: inW,
			OutC: outC, K: k, Stride: stride, Pad: pad,
			OutH: outH, OutW: outW,
		},
		w: newParam("conv.w", tensor.HeNormal(rng, fanIn, outC, fanIn)),
		b: newParam("conv.b", tensor.New(outC)),
	}
}

// OutFeatures returns the flattened output width OutC·OutH·OutW.
func (c *Conv2D) OutFeatures() int { return c.OutC * c.OutH * c.OutW }

// Forward convolves the batch. In training mode it retains x for Backward;
// an evaluation-mode pass retains nothing.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(1) != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: Conv2D input width %d, want %d", x.Dim(1), c.InC*c.InH*c.InW))
	}
	c.x = nil
	if train {
		c.x = x
	}
	c.out = tensor.EnsureShape(c.out, x.Dim(0), c.OutFeatures())
	tensor.ConvForward(c.out, x, c.w.W, c.b.W.Data, c.ConvGeom)
	return c.out
}

// Backward accumulates kernel/bias gradients and returns the input gradient:
// the output gradient times the kernel, scattered back to image space.
func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dout)
	bsz := dout.Dim(0)
	ohw := c.OutH * c.OutW
	ickk := c.InC * c.K * c.K

	// Gather dout into the matmul layout (B·OH·OW, OutC), channel-outer so
	// the reads stream a contiguous OH·OW plane per channel.
	c.dmat = tensor.EnsureShape(c.dmat, bsz*ohw, c.OutC)
	dmat := c.dmat
	for b := 0; b < bsz; b++ {
		drow := dout.Row(b)
		dbase := dmat.Data[b*ohw*c.OutC:]
		for oc := 0; oc < c.OutC; oc++ {
			src := drow[oc*ohw : (oc+1)*ohw]
			for p, v := range src {
				dbase[p*c.OutC+oc] = v
			}
		}
	}

	// dcols = dmat·W, then scatter back to image space, which overwrites dx.
	c.dcols = tensor.EnsureShape(c.dcols, bsz*ohw, ickk)
	dcols := tensor.MatMulInto(c.dcols, dmat, c.w.W)
	c.dx = tensor.EnsureShape(c.dx, bsz, c.InC*c.InH*c.InW)
	tensor.ConvBackwardInput(c.dx, dcols, c.ConvGeom)
	return c.dx
}

// backwardParams is the parameter half of Backward: dW and db from dout and
// the retained input.
func (c *Conv2D) backwardParams(dout *tensor.Tensor) {
	bsz, have := dout.Dim(0), 0
	if c.x != nil {
		have = c.x.Dim(0)
	}
	if have != bsz {
		panic(staleBackward("Conv2D", "samples", bsz, have))
	}
	tensor.ConvBackwardParams(c.w.G, c.b.G.Data, dout, c.x, c.ConvGeom)
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }
