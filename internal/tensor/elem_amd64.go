//go:build amd64 && !purego

package tensor

// AVX2+FMA elementwise and reduction kernels (elem_amd64.s). All take raw
// base pointers so the hot path never constructs a slice header; n may be
// any non-negative count — the assembly handles the sub-vector tail itself.
// Dispatch is guarded by elemUseAVX2 (CPUID probe shared with the GEMM
// micro-kernel).

//go:noescape
func elemAxpyAVX2(dst, x *float64, n int, a float64)

//go:noescape
func elemScaleAVX2(dst *float64, n int, a float64)

//go:noescape
func elemAddAVX2(dst, x *float64, n int)

//go:noescape
func elemAddScaledDiffAVX2(dst, x, y *float64, n int, a float64)

//go:noescape
func elemSumAVX2(x *float64, n int) float64

//go:noescape
func elemDotAVX2(x, y *float64, n int) float64

//go:noescape
func elemSqdistAVX2(x, y *float64, n int) float64
