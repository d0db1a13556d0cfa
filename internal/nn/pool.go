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
// empties that record. A window's maximum is its largest value, the first on
// ties, and its first NaN if it holds one, so a diverged activation reaches
// the output instead of vanishing; argmax always names a cell of the window.
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
	// Windows tile the image, so output row r of the whole batch — sample,
	// channel and oy flattened — pools the r-th band of K input rows.
	band := m.K * m.InW
	for r := 0; r < bsz*m.C*m.OutH; r++ {
		var arow []int
		if train {
			arow = m.argmax[r*m.OutW:][:m.OutW]
		}
		poolBand(out.Data[r*m.OutW:][:m.OutW], arow, x.Data[r*band:][:band], m.InW, m.K, r%(m.C*m.OutH)*band)
	}
	return out
}

// poolBand pools one band of k image rows of width inW into orow and, when
// arow is not nil, writes each winner's index there, base being the band's
// offset in its sample. It is a function of its own so that the scan's few
// live values stay in registers.
func poolBand(orow []float64, arow []int, rows []float64, inW, k, base int) {
	for ox := range orow {
		// best and its index are carried as integers and updated by selects,
		// so the scan has no data-dependent branch. v replaces best unless
		// v <= best, which also lets a NaN in; a NaN best is never replaced.
		arg := ox * k
		best := rows[arg]
		bestBits := math.Float64bits(best)
		for r := arg; r < len(rows); r += inW {
			for i, v := range rows[r : r+k] {
				vBits, at := math.Float64bits(v), r+i
				if v <= best {
					vBits, at = bestBits, arg
				}
				if best == best {
					bestBits, arg = vBits, at
				}
				best = math.Float64frombits(bestBits)
			}
		}
		orow[ox] = best
		if arow != nil {
			arow[ox] = base + arg
		}
	}
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
