package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Softmax(tensor.RandNormal(rng, 3, 6, 5))
	for i := 0; i < 6; i++ {
		s := 0.0
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableAtLargeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float64{1000, 1001, 999}, 1, 3)
	p := Softmax(logits)
	for _, v := range p.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflowed: %v", p.Data)
		}
	}
	loss, _ := SoftmaxCrossEntropy(logits, []int{1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("cross entropy overflowed: %v", loss)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		9, 0, 0,
	}, 4, 3)
	if got := Accuracy(logits, []int{0, 1, 2, 1}); got != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", got)
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	net := NewMLP(4, 6, 3, 2)(7)
	v := net.GetFlat()
	if len(v) != net.NumParams() {
		t.Fatalf("flat len %d, NumParams %d", len(v), net.NumParams())
	}
	net2 := NewMLP(4, 6, 3, 2)(8) // different init
	net2.SetFlat(v)
	v2 := net2.GetFlat()
	for i := range v {
		if v[i] != v2[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
	// Identical parameters must give identical predictions.
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandNormal(rng, 1, 5, 4)
	a, b := net.Predict(x), net2.Predict(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same params, different predictions")
		}
	}
}

func TestUnflattenSizeMismatchPanics(t *testing.T) {
	net := NewMLP(4, 6, 3, 2)(7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong-size vector")
		}
	}()
	net.SetFlat(make([]float64, net.NumParams()-1))
}

func TestBuilderDeterminism(t *testing.T) {
	b := NewImageCNN(ImageSpec{C: 1, H: 8, W: 8, Classes: 4}, 16)
	n1, n2 := b(42), b(42)
	f1, f2 := n1.GetFlat(), n2.GetFlat()
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("same seed must give identical init")
		}
	}
	n3 := b(43)
	f3 := n3.GetFlat()
	same := true
	for i := range f1 {
		if f1[i] != f3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical init")
	}
}

func TestImageCNNShapes(t *testing.T) {
	for _, spec := range []ImageSpec{
		{C: 1, H: 14, W: 14, Classes: 10},
		{C: 3, H: 12, W: 12, Classes: 10},
		{C: 1, H: 8, W: 8, Classes: 62},
	} {
		net := NewImageCNN(spec, 32)(1)
		rng := rand.New(rand.NewSource(2))
		x := tensor.RandNormal(rng, 1, 3, spec.InFeatures())
		feat, logits := net.Forward(x, true)
		if feat.Dim(1) != 32 {
			t.Fatalf("spec %+v: feature dim %d", spec, feat.Dim(1))
		}
		if logits.Dim(0) != 3 || logits.Dim(1) != spec.Classes {
			t.Fatalf("spec %+v: logits shape %v", spec, logits.Shape())
		}
	}
}

func TestTextLSTMShapes(t *testing.T) {
	spec := TextSpec{Vocab: 50, T: 6, Classes: 2}
	net := NewTextLSTM(spec, 8, 12, 16)(1)
	x := tensor.New(4, 6)
	rng := rand.New(rand.NewSource(3))
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(50))
	}
	feat, logits := net.Forward(x, true)
	if feat.Dim(1) != 16 || logits.Dim(1) != 2 {
		t.Fatalf("shapes feat=%v logits=%v", feat.Shape(), logits.Shape())
	}
}

// TestMLPLearnsSeparableData trains the MLP on a linearly separable toy
// problem with plain gradient descent and requires high train accuracy —
// a smoke test that forward, backward, and the loss wiring fit together.
func TestMLPLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, in := 200, 4
	x := tensor.RandNormal(rng, 1, n, in)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		if row[0]+row[1]-row[2] > 0 {
			labels[i] = 1
		}
	}
	net := NewMLP(in, 16, 8, 2)(5)
	for step := 0; step < 300; step++ {
		_, logits := net.Forward(x, true)
		_, dlogits := SoftmaxCrossEntropy(logits, labels)
		net.ZeroGrad()
		net.Backward(dlogits, nil)
		for _, p := range net.Params() {
			p.W.Axpy(-0.5, p.G)
		}
	}
	acc := Accuracy(net.Predict(x), labels)
	if acc < 0.97 {
		t.Fatalf("train accuracy %v, want ≥ 0.97", acc)
	}
}

// Property: flatten∘unflatten is the identity for arbitrary vectors of the
// right length.
func TestQuickFlattenIdentity(t *testing.T) {
	net := NewMLP(3, 4, 3, 2)(1)
	size := net.NumParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, size)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		net.SetFlat(v)
		got := net.GetFlat()
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkImageCNNForwardBackward(b *testing.B) {
	net := NewImageCNN(ImageSpec{C: 3, H: 12, W: 12, Classes: 10}, 64)(1)
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandNormal(rng, 1, 32, 3*12*12)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, logits := net.Forward(x, true)
		_, dlogits := SoftmaxCrossEntropy(logits, labels)
		net.ZeroGrad()
		net.Backward(dlogits, nil)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	net := NewTextLSTM(TextSpec{Vocab: 200, T: 20, Classes: 2}, 16, 32, 32)(1)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(10, 20)
	for i := range x.Data {
		x.Data[i] = float64(rng.Intn(200))
	}
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = rng.Intn(2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, logits := net.Forward(x, true)
		_, dlogits := SoftmaxCrossEntropy(logits, labels)
		net.ZeroGrad()
		net.Backward(dlogits, nil)
	}
}
