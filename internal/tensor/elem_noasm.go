//go:build !amd64 || purego

package tensor

// Stubs for builds without the AVX2 elementwise kernels; elemUseAVX2 is
// always false there (gemmHasAsm is false), so these are never reached.

func elemAxpyAVX2(dst, x *float64, n int, a float64) {
	panic("tensor: elemAxpyAVX2 called without assembly support")
}

func elemScaleAVX2(dst *float64, n int, a float64) {
	panic("tensor: elemScaleAVX2 called without assembly support")
}

func elemAddAVX2(dst, x *float64, n int) {
	panic("tensor: elemAddAVX2 called without assembly support")
}

func elemAddScaledDiffAVX2(dst, x, y *float64, n int, a float64) {
	panic("tensor: elemAddScaledDiffAVX2 called without assembly support")
}

func elemSumAVX2(x *float64, n int) float64 {
	panic("tensor: elemSumAVX2 called without assembly support")
}

func elemDotAVX2(x, y *float64, n int) float64 {
	panic("tensor: elemDotAVX2 called without assembly support")
}

func elemSqdistAVX2(x, y *float64, n int) float64 {
	panic("tensor: elemSqdistAVX2 called without assembly support")
}
