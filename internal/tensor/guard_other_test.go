//go:build !linux

package tensor

import "testing"

// edgeFloats returns n float64s of exact length and capacity; the Linux
// build also places them against an inaccessible page.
func edgeFloats(t testing.TB, n int) []float64 { return make([]float64, n) }
