package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestBackwardNeedsMatchingTrainingForward: an evaluation-mode Forward caches
// nothing, so a Backward after one — or after a training pass at another
// batch size — must panic, not differentiate whichever pass last left its
// input, mask or argmax behind.
func TestBackwardNeedsMatchingTrainingForward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	layers := map[string]Layer{
		"Conv2D":    NewConv2D(rng, 2, 6, 6, 3, 3, 1, 1),
		"ReLU":      NewReLU(),
		"MaxPool2D": NewMaxPool2D(2, 6, 6, 2),
	}
	for name, l := range layers {
		x4 := tensor.RandNormal(rng, 1, 4, 2*6*6)
		x2 := tensor.RandNormal(rng, 1, 2, 2*6*6)
		dout4 := l.Forward(x4, true).Clone()
		l.Backward(dout4) // a matching training pass is fine

		for what, stale := range map[string]func(){
			"an evaluation-mode Forward":            func() { l.Forward(x4, false) },
			"a training Forward at another batch":   func() { l.Forward(x2, true) },
			"an evaluation Forward at another size": func() { l.Forward(x2, false) },
			"a training then an evaluation Forward": func() { l.Forward(x4, true); l.Forward(x4, false) },
		} {
			stale()
			msg := panicMessage(func() { l.Backward(dout4) })
			if !strings.Contains(msg, name+".Backward") || !strings.Contains(msg, "training-mode Forward") {
				t.Errorf("%s: Backward after %s: panic %q, want a message naming the layer and the missing training-mode Forward",
					name, what, msg)
			}
		}
		// The layer recovers as soon as the passes match again.
		l.Forward(x4, true)
		l.Backward(dout4)
	}
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
		}
	}()
	f()
	return ""
}

// TestFirstLayerInputGradientSkip: Sequential.Backward does not form the
// first layer's input gradient when that layer is a Dense or Conv2D, and
// every parameter gradient is the same to the bit as when each layer's full
// Backward runs.
func TestFirstLayerInputGradientSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	spec := ImageSpec{C: 1, H: 12, W: 12, Classes: 4}
	for name, net := range map[string]*Network{
		"cnn": NewImageCNN(spec, 10)(3),
		"mlp": NewMLP(spec.InFeatures(), 16, 10, 4)(3),
	} {
		x := tensor.RandNormal(rng, 1, 5, spec.InFeatures())
		dfeat := tensor.RandNormal(rng, 1, 5, net.FeatureDim)
		feat := net.Feature

		feat.Forward(x, true)
		ZeroGrad(feat.Params())
		if dx := feat.Backward(dfeat); dx != nil {
			t.Fatalf("%s: Sequential.Backward returned an input gradient, want nil", name)
		}
		skipped := FlattenGrads(feat.Params())

		feat.Forward(x, true)
		ZeroGrad(feat.Params())
		d := dfeat
		for i := len(feat.Layers) - 1; i >= 0; i-- {
			d = feat.Layers[i].Backward(d)
		}
		if d == nil || d.Dim(0) != 5 || d.Dim(1) != spec.InFeatures() {
			t.Fatalf("%s: layer-by-layer Backward did not produce the input gradient", name)
		}
		full := FlattenGrads(feat.Params())

		for i := range full {
			if skipped[i] != full[i] {
				t.Fatalf("%s: parameter gradient %d = %v with the skip, %v without", name, i, skipped[i], full[i])
			}
		}
	}
}

// TestReLUMatchesBranchOnEveryInput pins the select-on-bits ReLU to the
// branch it replaced — v if v > 0, else +0 — on the inputs where a max()
// or a sign-bit trick would differ: NaN, ±0, ±Inf, subnormals.
func TestReLUMatchesBranchOnEveryInput(t *testing.T) {
	in := []float64{1.5, -1.5, 0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	x := tensor.FromSlice(in, 1, len(in))
	r := NewReLU()
	for _, train := range []bool{true, false} {
		out := r.Forward(x, train)
		for i, v := range in {
			want := 0.0
			if v > 0 {
				want = v
			}
			if math.Float64bits(out.Data[i]) != math.Float64bits(want) {
				t.Fatalf("train %v: relu(%v) = %v (bits %x), want %v", train, v, out.Data[i], math.Float64bits(out.Data[i]), want)
			}
		}
	}
}
