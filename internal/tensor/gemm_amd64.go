//go:build amd64 && !purego

package tensor

// gemmHasAsm reports that this build includes the AVX2+FMA micro-kernel;
// whether it is actually used is decided at init by cpuHasAVX2FMA.
const gemmHasAsm = true

// gemmMicroAVX2 accumulates one full 4×8 tile: c[i·ldc + j] +=
// Σ_p a[i·rsa + p·csa] · b[p·ldb + j], for i in 0..3, j in 0..7, p in
// 0..kc-1. kc must be ≥ 1 and every element so addressed must lie inside
// its slice. Packed micro-panels are rsa=1, csa=4, ldb=8. Implemented in
// gemm_amd64.s with eight YMM accumulators.
//
//go:noescape
func gemmMicroAVX2(kc int, a *float64, rsa, csa int, b *float64, ldb int, c *float64, ldc int)

// cpuHasAVX2FMA reports whether the CPU supports AVX2 and FMA3 and the OS
// has enabled YMM state saving (CPUID + XGETBV probe in gemm_amd64.s).
func cpuHasAVX2FMA() bool
