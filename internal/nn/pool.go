package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool2D is a non-overlapping 2-D max pooling layer over channel-major
// images, with window size and stride both equal to K.
type MaxPool2D struct {
	C, InH, InW int
	K           int
	OutH, OutW  int

	argmax  []int // flat input index chosen per output element
	out, dx *tensor.Tensor
}

// NewMaxPool2D creates a max-pooling layer. Input height and width must be
// divisible by K so pooling windows tile the image exactly.
func NewMaxPool2D(c, inH, inW, k int) *MaxPool2D {
	if inH%k != 0 || inW%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %dx%d not divisible by window %d", inH, inW, k))
	}
	return &MaxPool2D{C: c, InH: inH, InW: inW, K: k, OutH: inH / k, OutW: inW / k}
}

// OutFeatures returns the flattened output width C·OutH·OutW.
func (m *MaxPool2D) OutFeatures() int { return m.C * m.OutH * m.OutW }

// Forward takes the max over each pooling window and, in training mode,
// records the argmax for the backward pass; an evaluation-mode Forward
// empties that record.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	bsz := x.Dim(0)
	if x.Dim(1) != m.C*m.InH*m.InW {
		panic(fmt.Sprintf("nn: MaxPool2D input width %d, want %d", x.Dim(1), m.C*m.InH*m.InW))
	}
	m.out = tensor.EnsureShape(m.out, bsz, m.OutFeatures())
	out := m.out
	m.argmax = m.argmax[:0]
	if train {
		if cap(m.argmax) < out.Size() {
			m.argmax = make([]int, out.Size())
		}
		m.argmax = m.argmax[:out.Size()]
	}
	for b := 0; b < bsz; b++ {
		img := x.Row(b)
		orow := out.Row(b)
		for c := 0; c < m.C; c++ {
			chIn := c * m.InH * m.InW
			chOut := c * m.OutH * m.OutW
			for oy := 0; oy < m.OutH; oy++ {
				for ox := 0; ox < m.OutW; ox++ {
					// best = the window's largest value under >, first one
					// on ties. Both it (as bits) and its index are integer
					// selects, so the scan carries no data-dependent branch.
					best, arg := math.Inf(-1), -1
					bestBits := math.Float64bits(best)
					for ky := 0; ky < m.K; ky++ {
						base := chIn + (oy*m.K+ky)*m.InW + ox*m.K
						for kx, v := range img[base : base+m.K] {
							if vBits := math.Float64bits(v); v > best {
								bestBits, arg = vBits, base+kx
							}
							best = math.Float64frombits(bestBits)
						}
					}
					o := chOut + oy*m.OutW + ox
					orow[o] = best
					if train {
						m.argmax[b*out.Dim(1)+o] = arg
					}
				}
			}
		}
	}
	return out
}

// Backward routes each output gradient to the input position that won the
// max in the forward pass.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if len(m.argmax) != dout.Size() {
		panic(staleBackward("MaxPool2D", "elements", dout.Size(), len(m.argmax)))
	}
	bsz := dout.Dim(0)
	// dx receives scatter-adds, so the reused buffer must be zeroed.
	m.dx = tensor.EnsureShape(m.dx, bsz, m.C*m.InH*m.InW)
	dx := m.dx
	dx.Zero()
	w := dout.Dim(1)
	for b := 0; b < bsz; b++ {
		drow := dout.Row(b)
		xrow := dx.Row(b)
		for o, g := range drow {
			xrow[m.argmax[b*w+o]] += g
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }
