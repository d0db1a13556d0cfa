//go:build !amd64 || purego

package tensor

// gemmHasAsm reports that this build has no assembly micro-kernel; the
// scalar 4×8 kernel in gemm.go is used instead.
const gemmHasAsm = false

func gemmMicroAVX2(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int) {
	panic("tensor: gemmMicroAVX2 called without assembly support")
}

func cpuHasAVX2FMA() bool { return false }
