package nn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

var flatModels = map[string]struct {
	build nn.Builder
	in    int
}{
	"mlp": {nn.NewMLP(20, 16, 8, 5), 20},
	"cnn": {nn.NewImageCNN(nn.ImageSpec{C: 1, H: 12, W: 12, Classes: 5}, 8), 144},
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A network training in an adopted vector and its twin loaded by SetFlat see
// the same losses, gradients and weights, step for step — also when a second
// model arrives mid-way and the stateful RMSProp optimizer is not reset: its
// state belongs to the Params, which AdoptFlat leaves in place.
func TestAdoptFlatTrainsLikeSetFlat(t *testing.T) {
	const steps, batch = 4, 9
	for name, model := range flatModels {
		for optName, newOpt := range map[string]func() opt.Optimizer{
			"sgd":     func() opt.Optimizer { return opt.NewSGD() },
			"rmsprop": func() opt.Optimizer { return opt.NewRMSProp() },
		} {
			t.Run(name+"/"+optName, func(t *testing.T) {
				adopted, loaded := model.build(1), model.build(1)
				optA, optL := newOpt(), newOpt()
				params := adopted.Params()
				rng := rand.New(rand.NewSource(4))
				for arrival := 0; arrival < 2; arrival++ {
					v := model.build(int64(10 + arrival)).GetFlat()
					mine := append([]float64(nil), v...)
					adopted.AdoptFlat(mine)
					loaded.SetFlat(v)
					if &adopted.Flat()[0] != &mine[0] {
						t.Fatal("Flat is not the adopted vector")
					}
					for i, p := range adopted.Params() {
						if p != params[i] {
							t.Fatalf("AdoptFlat replaced Param %d", i)
						}
					}
					for s := 0; s < steps; s++ {
						x := tensor.RandNormal(rng, 1, batch, model.in)
						y := make([]int, batch)
						for i := range y {
							y[i] = rng.Intn(5)
						}
						step := func(n *nn.Network, o opt.Optimizer) float64 {
							_, logits := n.Forward(x, true)
							loss, dlogits := nn.SoftmaxCrossEntropy(logits, y)
							n.ZeroGrad()
							n.Backward(dlogits, nil)
							o.Step(n.Params(), 0.05)
							return loss
						}
						la, ll := step(adopted, optA), step(loaded, optL)
						if la != ll {
							t.Fatalf("arrival %d step %d: loss %v adopted, %v loaded", arrival, s, la, ll)
						}
						if !sameFloats(nn.FlattenGrads(adopted.Params()), nn.FlattenGrads(loaded.Params())) {
							t.Fatalf("arrival %d step %d: gradients differ", arrival, s)
						}
						if !sameFloats(mine, loaded.GetFlat()) {
							t.Fatalf("arrival %d step %d: weights differ", arrival, s)
						}
					}
					if sameFloats(mine, v) {
						t.Fatal("vacuous: training did not move the adopted vector")
					}
				}
			})
		}
	}
}

// The copying accessors mean on an adopted network what they mean on a built
// one, and Flat is a view: writes through either side show on the other.
func TestFlatCopySemanticsOnAdoptedNetwork(t *testing.T) {
	for name, model := range flatModels {
		t.Run(name, func(t *testing.T) {
			n := model.build(1)
			want := n.GetFlat()
			flat := n.Flat()
			if !sameFloats(flat, want) {
				t.Fatal("Flat changed the weights it packed")
			}
			if got := n.GetFlat(); !sameFloats(got, want) || &got[0] == &flat[0] {
				t.Fatal("GetFlat must return an equal copy, not the adopted vector")
			}
			other := model.build(2).GetFlat()
			n.SetFlat(other)
			if !sameFloats(flat, other) || &n.Flat()[0] != &flat[0] {
				t.Fatal("SetFlat must copy into the adopted vector and leave it adopted")
			}
			other[0]++
			if flat[0] == other[0] {
				t.Fatal("SetFlat kept the caller's slice")
			}
			dst := make([]float64, len(flat))
			nn.FlattenTo(dst, n.Params())
			if !sameFloats(dst, flat) {
				t.Fatal("FlattenTo differs from the adopted vector")
			}
			nn.Unflatten(n.Params(), want)
			if !sameFloats(flat, want) {
				t.Fatal("Unflatten did not write through to the adopted vector")
			}
			last := n.Params()[len(n.Params())-1].W.Data
			last[len(last)-1] = 42
			if flat[len(flat)-1] != 42 {
				t.Fatal("a tensor write does not show in Flat")
			}
			// Tensors are capped at their segment: growing one must not run
			// into its neighbour's weights.
			first := n.Params()[0].W.Data
			if cap(first) != len(first) {
				t.Fatalf("first tensor has cap %d over len %d", cap(first), len(first))
			}
		})
	}
}

func TestAdoptFlatSameVectorAndWrongLength(t *testing.T) {
	n := flatModels["mlp"].build(1)
	flat := n.Flat()
	before := n.Params()[0].W.Data
	n.AdoptFlat(flat)
	if after := n.Params()[0].W.Data; &after[0] != &before[0] || &n.Flat()[0] != &flat[0] {
		t.Fatal("adopting the adopted vector moved the weights")
	}
	if a := testing.AllocsPerRun(10, func() { n.AdoptFlat(flat) }); a != 0 {
		t.Fatalf("adopting the adopted vector: %v allocs", a)
	}
	for _, l := range []int{0, len(flat) - 1, len(flat) + 1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprint(len(flat))) || !strings.Contains(msg, fmt.Sprintf("has %d", l)) {
					t.Fatalf("AdoptFlat of %d floats into %d weights: panic %q must name both lengths", l, len(flat), msg)
				}
			}()
			n.AdoptFlat(make([]float64, l))
		}()
	}
	if &n.Flat()[0] != &flat[0] {
		t.Fatal("a refused vector replaced the weights")
	}
}

// The first Flat allocates the vector and nothing else; later ones nothing.
func TestFlatAllocatesOnce(t *testing.T) {
	const runs = 5
	fresh := make([]*nn.Network, runs+1) // AllocsPerRun warms up with one extra call
	for i := range fresh {
		fresh[i] = flatModels["cnn"].build(1)
		fresh[i].Params() // the cached list is not Flat's allocation
	}
	next := 0
	if a := testing.AllocsPerRun(runs, func() { fresh[next].Flat(); next++ }); a != 1 {
		t.Fatalf("first Flat: %v allocs, want 1 (the vector)", a)
	}
	n := fresh[0]
	if a := testing.AllocsPerRun(100, func() { n.Flat() }); a != 0 {
		t.Fatalf("later Flat: %v allocs, want 0", a)
	}
}

// A network whose gradients live in an adopted vector accumulates into that
// vector exactly what a network with its own gradient tensors accumulates,
// two backward passes deep. After AdoptGrads(nil) every gradient is empty but
// keeps its shape, and Backward panics rather than write anywhere — the
// vector it held last included.
func TestAdoptGrads(t *testing.T) {
	const batch = 5
	for name, model := range flatModels {
		t.Run(name, func(t *testing.T) {
			own, adopted := model.build(1), model.build(1)
			rng := rand.New(rand.NewSource(6))
			x := tensor.RandNormal(rng, 1, batch, model.in)
			y := []int{0, 1, 2, 3, 4}
			backward := func(n *nn.Network) {
				_, logits := n.Forward(x, true)
				_, dlogits := nn.SoftmaxCrossEntropy(logits, y)
				n.Backward(dlogits, nil)
			}
			g := make([]float64, adopted.NumParams())
			adopted.AdoptGrads(g)
			own.ZeroGrad()
			adopted.ZeroGrad()
			for range 2 {
				backward(own)
				backward(adopted)
			}
			off := 0
			for _, p := range adopted.Params() {
				if &p.G.Data[0] != &g[off] || len(p.G.Data) != p.W.Size() {
					t.Fatalf("%s's gradient is not its segment of the adopted vector", p.Name)
				}
				off += p.W.Size()
			}
			if want := nn.FlattenGrads(own.Params()); !sameFloats(g, want) {
				t.Fatal("the adopted vector does not hold the accumulated gradients")
			}

			held := append([]float64(nil), g...)
			adopted.AdoptGrads(nil)
			for _, p := range adopted.Params() {
				if len(p.G.Data) != 0 || !slices.Equal(p.G.Shape(), p.W.Shape()) {
					t.Fatalf("%s after AdoptGrads(nil): %d gradient values, shape %v for weights %v",
						p.Name, len(p.G.Data), p.G.Shape(), p.W.Shape())
				}
			}
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "AdoptGrads") {
						t.Fatalf("Backward without gradient storage: panic %q, want one naming AdoptGrads", msg)
					}
				}()
				backward(adopted)
			}()
			if !sameFloats(g, held) {
				t.Fatal("a Backward without gradient storage wrote into the vector dropped before it")
			}
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprintf("has %d", len(g)-1)) {
						t.Fatalf("AdoptGrads of a short vector: panic %q must name its length", msg)
					}
				}()
				adopted.AdoptGrads(g[1:])
			}()
		})
	}
}
