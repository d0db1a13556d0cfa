package fl

import (
	"math"
	"math/rand"
	"testing"
)

// WeightedAverage runs on the SIMD kernels (engine.Aggregate): it must agree
// with a private scalar reference within reassociation tolerance.
func TestWeightedAverageMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dim := 513
	mk := func(id, n int) ClientOut {
		p := make([]float64, dim)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		ds := allocTestDataset(rng, n, 2, 2)
		return ClientOut{Client: &Client{ID: id, Data: ds}, Params: p}
	}
	outs := []ClientOut{mk(0, 10), mk(1, 25), mk(2, 5)}
	got := WeightedAverage(outs)

	want := make([]float64, dim)
	den := 0.0
	for _, o := range outs {
		n := float64(o.Client.Data.Len())
		for i, v := range o.Params {
			want[i] += n * v
		}
		den += n
	}
	for i := range want {
		want[i] /= den
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("index %d: %v vs scalar %v", i, got[i], want[i])
		}
	}
}
