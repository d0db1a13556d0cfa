// Package tensor implements dense, row-major, float64 tensors and the
// numerical kernels (elementwise ops, reductions, parallel matrix multiply,
// convolution) needed to train the neural networks used throughout this
// repository. It is deliberately small: contiguous storage only, no views,
// no broadcasting beyond the few patterns the nn package needs. That keeps
// every backward pass easy to audit against a numerical gradient check.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, contiguous, row-major array of float64 values.
// The zero value is not usable; construct tensors with New or FromSlice.
type Tensor struct {
	shape []int
	Data  []float64
}

// New allocates a zero-filled tensor with the given shape. It panics on a
// non-positive dimension, because a bad shape is always a programming error
// in this codebase, never a runtime condition.
//
// The panic messages here and in EnsureShape deliberately avoid formatting
// the shape slice itself: referencing it in fmt.Sprintf would make the
// variadic parameter escape, forcing every caller to heap-allocate its
// `...int` argument even on the happy path.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// EnsureShape returns a tensor of the given shape, reusing t's backing
// storage when it has enough capacity and allocating a fresh tensor
// otherwise. It is the primitive behind every scratch buffer in the hot
// path: after warm-up the capacity check always succeeds and the call
// allocates nothing. The returned tensor's contents are unspecified —
// callers that need zeros must call Zero explicitly. t may be nil.
func EnsureShape(t *Tensor, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d", d))
		}
		n *= d
	}
	if t == nil || cap(t.Data) < n {
		return New(shape...)
	}
	t.Data = t.Data[:n]
	if len(t.shape) == len(shape) {
		copy(t.shape, shape)
	} else {
		t.shape = append(t.shape[:0], shape...)
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if the element count does not match.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements cannot fill shape %v", len(data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies u's contents into t. The shapes must match exactly.
func (t *Tensor) CopyFrom(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: copy shape mismatch %v vs %v", t.shape, u.shape))
	}
	copy(t.Data, u.Data)
}

// Reshape returns a tensor sharing t's storage with a new shape of the same
// total size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.Data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a mutable view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	w := t.shape[1]
	return t.Data[i*w : (i+1)*w]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// String renders a compact, human-readable description, used in tests and
// error messages rather than for numeric display of large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g … %g]", t.Data[0], t.Data[1], t.Data[len(t.Data)-1])
	}
	return b.String()
}
