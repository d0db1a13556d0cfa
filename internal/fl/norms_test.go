package fl

import (
	"math"
	"math/rand"
	"testing"
)

// Equivalence tests for the aggregation/norm paths rewired onto the SIMD
// kernels (updateNorms, WeightedAverage): each must agree with a private
// scalar reference within reassociation tolerance.

func TestUpdateNormsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dim := range []int{1, 7, 8, 33, 1000} {
		global := make([]float64, dim)
		for i := range global {
			global[i] = rng.NormFloat64()
		}
		outs := make([]ClientOut, 4)
		for c := range outs {
			p := make([]float64, dim)
			for i := range p {
				p[i] = rng.NormFloat64()
			}
			outs[c] = ClientOut{Client: &Client{ID: c}, Params: p}
		}
		outs[2].Params = nil // non-reporting client must be skipped

		got := updateNorms(global, outs)
		if _, ok := got[2]; ok {
			t.Fatal("updateNorms included a client with nil Params")
		}
		for c, o := range outs {
			if o.Params == nil {
				continue
			}
			s := 0.0
			for i, v := range o.Params {
				d := v - global[i]
				s += d * d
			}
			want := math.Sqrt(s)
			if math.Abs(got[c]-want) > 1e-12*float64(dim+1) {
				t.Fatalf("dim=%d client %d: norm %v vs scalar %v", dim, c, got[c], want)
			}
		}
	}
}

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
