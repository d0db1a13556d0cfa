package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// The nine MatMul entry points below (plain/Into/Acc × NN/NT/TN) are thin
// shape-checking wrappers over the packed, cache-blocked GEMM core in
// gemm.go. The transpose variants are folded into the core's packing step,
// so every variant shares the same register-tiled micro-kernel.

// kernelPar caps how many goroutines one kernel invocation may fan out to;
// 0 means "use GOMAXPROCS". It exists because the kernels are themselves
// called from worker pools (fl.Federation.MapClients): without a shared
// budget, W pool workers each spawning GOMAXPROCS kernel goroutines
// oversubscribe the machine quadratically.
var kernelPar atomic.Int32

// SetKernelParallelism bounds the number of goroutines a single kernel call
// may use and returns the previous bound (0 meaning the GOMAXPROCS default);
// n <= 0 restores the default. Worker pools that split the machine — e.g.
// giving each of W workers GOMAXPROCS/W — must restore the returned value
// when the pooled phase ends.
func SetKernelParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(kernelPar.Swap(int32(n)))
}

// KernelParallelism returns the current kernel goroutine bound.
func KernelParallelism() int {
	if v := kernelPar.Load(); v > 0 {
		return int(v)
	}
	return runtime.GOMAXPROCS(0)
}

// MatMul returns a×b for rank-2 tensors with inner dimensions matching:
// (m×k)·(k×n) → (m×n). Above a work threshold, bands of whole output tiles
// are computed in parallel within the kernel-parallelism budget.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mustMulShapes("MatMul", a, b)
	out := New(m, n)
	gemm(out, a, b, m, k, n, false, false)
	return out
}

// MatMulInto computes out = a·b, writing into the caller-provided out of
// shape (m×n). out must not alias a or b. It returns out.
func MatMulInto(out, a, b *Tensor) *Tensor {
	m, k, n := mustMulShapes("MatMulInto", a, b)
	mustOut("MatMulInto", out, a, b, m, n)
	out.Zero()
	gemm(out, a, b, m, k, n, false, false)
	return out
}

// MatMulAcc computes out += a·b into the caller-provided out of shape
// (m×n). out must not alias a or b. It returns out.
func MatMulAcc(out, a, b *Tensor) *Tensor {
	m, k, n := mustMulShapes("MatMulAcc", a, b)
	mustOut("MatMulAcc", out, a, b, m, n)
	gemm(out, a, b, m, k, n, false, false)
	return out
}

// MatMulTransB returns a×bᵀ: (m×k)·(n×k)ᵀ → (m×n). This is the natural
// layout for the backward pass of a dense layer (dX = dY·Wᵀ) and avoids
// materializing the transpose.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mustTransBShapes("MatMulTransB", a, b)
	out := New(m, n)
	gemm(out, a, b, m, k, n, false, true)
	return out
}

// MatMulTransBInto computes out = a×bᵀ into the caller-provided out of
// shape (m×n). out must not alias a or b. It returns out.
func MatMulTransBInto(out, a, b *Tensor) *Tensor {
	m, k, n := mustTransBShapes("MatMulTransBInto", a, b)
	mustOut("MatMulTransBInto", out, a, b, m, n)
	out.Zero()
	gemm(out, a, b, m, k, n, false, true)
	return out
}

// MatMulTransBAcc computes out += a×bᵀ into the caller-provided out of
// shape (m×n). out must not alias a or b. It returns out.
func MatMulTransBAcc(out, a, b *Tensor) *Tensor {
	m, k, n := mustTransBShapes("MatMulTransBAcc", a, b)
	mustOut("MatMulTransBAcc", out, a, b, m, n)
	gemm(out, a, b, m, k, n, false, true)
	return out
}

// MatMulTransA returns aᵀ×b: (k×m)ᵀ·(k×n) → (m×n). This is the natural
// layout for weight gradients (dW = Xᵀ·dY).
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := mustTransAShapes("MatMulTransA", a, b)
	out := New(m, n)
	gemm(out, a, b, m, k, n, true, false)
	return out
}

// MatMulTransAInto computes out = aᵀ×b into the caller-provided out of
// shape (m×n). out must not alias a or b. It returns out.
func MatMulTransAInto(out, a, b *Tensor) *Tensor {
	k, m, n := mustTransAShapes("MatMulTransAInto", a, b)
	mustOut("MatMulTransAInto", out, a, b, m, n)
	out.Zero()
	gemm(out, a, b, m, k, n, true, false)
	return out
}

// MatMulTransAAcc computes out += aᵀ×b into the caller-provided out of
// shape (m×n) — the gradient-accumulation primitive dW += Xᵀ·dY applied
// directly to a parameter's gradient tensor. out must not alias a or b. It
// returns out.
func MatMulTransAAcc(out, a, b *Tensor) *Tensor {
	k, m, n := mustTransAShapes("MatMulTransAAcc", a, b)
	mustOut("MatMulTransAAcc", out, a, b, m, n)
	gemm(out, a, b, m, k, n, true, false)
	return out
}

func mustMulShapes(op string, a, b *Tensor) (m, k, n int) {
	m, k = mustMatrix(op, "lhs", a)
	k2, n := mustMatrix(op, "rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner mismatch (%d×%d)·(%d×%d)", op, m, k, k2, n))
	}
	return m, k, n
}

func mustTransBShapes(op string, a, b *Tensor) (m, k, n int) {
	m, k = mustMatrix(op, "lhs", a)
	n, k2 := mustMatrix(op, "rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner mismatch (%d×%d)·(%d×%d)ᵀ", op, m, k, n, k2))
	}
	return m, k, n
}

func mustTransAShapes(op string, a, b *Tensor) (k, m, n int) {
	k, m = mustMatrix(op, "lhs", a)
	k2, n := mustMatrix(op, "rhs", b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner mismatch (%d×%d)ᵀ·(%d×%d)", op, k, m, k2, n))
	}
	return k, m, n
}

// mustOut validates a caller-provided output tensor: rank-2, exact shape,
// and no storage aliasing with either input (the kernels stream over rows
// of out while reading a and b, so aliasing silently corrupts results).
func mustOut(op string, out, a, b *Tensor, m, n int) {
	om, on := mustMatrix(op, "out", out)
	if om != m || on != n {
		panic(fmt.Sprintf("tensor: %s out shape %v, want (%d×%d)", op, out.shape, m, n))
	}
	if sameStorage(out, a) || sameStorage(out, b) {
		panic(fmt.Sprintf("tensor: %s out must not alias an input", op))
	}
}

// sameStorage reports whether two tensors share a backing array start; it
// is a cheap guard, not a full overlap check.
func sameStorage(x, y *Tensor) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// mustMatrix takes op and operand separately so the hot path never builds a
// message string; the two only meet inside the panic.
func mustMatrix(op, operand string, t *Tensor) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: %s %s must be rank-2, got shape %v", op, operand, t.shape))
	}
	return t.shape[0], t.shape[1]
}
