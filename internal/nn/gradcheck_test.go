package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// checkLayerGradients verifies a layer's backward pass against central
// finite differences of the scalar loss L = Σ c_i · Forward(x)_i for a
// random fixed c. It checks both the input gradient (unless the layer
// returns nil) and every parameter gradient.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, eps, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	out := l.Forward(x, true)
	c := tensor.RandNormal(rng, 1, out.Shape()...)
	ZeroGrad(l.Params())
	dx := l.Backward(c)

	loss := func() float64 {
		return tensor.Dot(l.Forward(x, true), c)
	}

	if dx != nil {
		for i := 0; i < x.Size(); i++ {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			up := loss()
			x.Data[i] = orig - eps
			down := loss()
			x.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(dx.Data[i]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("input grad[%d] = %v, numeric %v", i, dx.Data[i], want)
			}
		}
	}

	for _, p := range l.Params() {
		// Check a sample of entries to keep the test fast on big tensors.
		stride := 1
		if p.W.Size() > 64 {
			stride = p.W.Size() / 64
		}
		for i := 0; i < p.W.Size(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := loss()
			p.W.Data[i] = orig - eps
			down := loss()
			p.W.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(p.G.Data[i]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewDense(rng, 5, 4)
	x := tensor.RandNormal(rng, 1, 3, 5)
	checkLayerGradients(t, l, x, 1e-6, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandNormal(rng, 1, 4, 6)
	// Keep inputs away from the kink at 0 where finite differences lie.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] = 0.5
		}
	}
	checkLayerGradients(t, NewReLU(), x, 1e-6, 1e-5)
}

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 1, 4, 6)
	checkLayerGradients(t, NewTanh(), x, 1e-6, 1e-5)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewConv2D(rng, 2, 6, 6, 3, 3, 1, 1)
	x := tensor.RandNormal(rng, 1, 2, 2*6*6)
	checkLayerGradients(t, l, x, 1e-6, 1e-5)
}

func TestConv2DStridePadVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, cfg := range []struct{ k, s, p int }{{3, 1, 0}, {3, 2, 1}, {2, 2, 0}, {5, 1, 2}} {
		l := NewConv2D(rng, 1, 8, 8, 2, cfg.k, cfg.s, cfg.p)
		x := tensor.RandNormal(rng, 1, 2, 64)
		checkLayerGradients(t, l, x, 1e-6, 1e-5)
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewMaxPool2D(2, 4, 4, 2)
	x := tensor.RandNormal(rng, 1, 3, 2*16)
	checkLayerGradients(t, l, x, 1e-6, 1e-5)
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewEmbedding(rng, 7, 3)
	x := tensor.FromSlice([]float64{0, 3, 6, 2, 2, 5}, 2, 3)
	checkLayerGradients(t, l, x, 1e-6, 1e-5)
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLSTM(rng, 3, 4, 5)
	x := tensor.RandNormal(rng, 1, 2, 5*3)
	checkLayerGradients(t, l, x, 1e-6, 2e-5)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewSequential(NewDense(rng, 6, 5), NewTanh(), NewDense(rng, 5, 3))
	x := tensor.RandNormal(rng, 1, 4, 6)
	checkLayerGradients(t, s, x, 1e-6, 1e-5)
}

// TestNetworkEndToEndGradients checks the full Network backward (head +
// feature + extra feature gradient path) against finite differences of the
// actual training objective: cross-entropy plus a linear feature term that
// stands in for the regularizer.
func TestNetworkEndToEndGradients(t *testing.T) {
	build := NewMLP(6, 8, 5, 3)
	net := build(11)
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandNormal(rng, 1, 4, 6)
	labels := []int{0, 2, 1, 1}
	cf := tensor.RandNormal(rng, 0.3, 4, 5) // coefficient of the feature term

	lossAt := func() float64 {
		feat, logits := net.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l + tensor.Dot(feat, cf)
	}

	feat, logits := net.Forward(x, true)
	_ = feat
	_, dlogits := SoftmaxCrossEntropy(logits, labels)
	net.ZeroGrad()
	net.Backward(dlogits, cf)

	const eps, tol = 1e-6, 1e-4
	for _, p := range net.Params() {
		stride := 1
		if p.W.Size() > 32 {
			stride = p.W.Size() / 32
		}
		for i := 0; i < p.W.Size(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := lossAt()
			p.W.Data[i] = orig - eps
			down := lossAt()
			p.W.Data[i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(p.G.Data[i]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.G.Data[i], want)
			}
		}
	}
}

// TestGradientsAcrossBatchResizes re-runs the gradient check on the SAME
// layer instances at batch sizes 4 → 2 → 6. With layer-owned scratch buffers
// this is the regime where stale-buffer bugs live: shrinking must not leave
// old rows visible, growing must resize every dependent buffer, and a buffer
// that needs zeroing (conv/pool dx scatter-adds, ReLU masks) must be zeroed
// at its *current* size, not its first-use size.
func TestGradientsAcrossBatchResizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type layerCase struct {
		name string
		l    Layer
		make func(rng *rand.Rand, b int) *tensor.Tensor
		eps  float64
		tol  float64
	}
	cases := []layerCase{
		{"dense", NewDense(rng, 5, 4),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 5) }, 1e-6, 1e-5},
		{"relu", NewReLU(),
			func(rng *rand.Rand, b int) *tensor.Tensor {
				x := tensor.RandNormal(rng, 1, b, 6)
				for i := range x.Data {
					if math.Abs(x.Data[i]) < 0.1 {
						x.Data[i] = 0.5
					}
				}
				return x
			}, 1e-6, 1e-5},
		{"tanh", NewTanh(),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 6) }, 1e-6, 1e-5},
		{"conv2d", NewConv2D(rng, 2, 6, 6, 3, 3, 1, 1),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 2*6*6) }, 1e-6, 1e-5},
		{"maxpool", NewMaxPool2D(2, 4, 4, 2),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 2*16) }, 1e-6, 1e-5},
		{"lstm", NewLSTM(rng, 3, 4, 5),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 5*3) }, 1e-6, 2e-5},
		{"mlp-stack", NewSequential(NewDense(rng, 6, 5), NewTanh(), NewDense(rng, 5, 3)),
			func(rng *rand.Rand, b int) *tensor.Tensor { return tensor.RandNormal(rng, 1, b, 6) }, 1e-6, 1e-5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range []int{4, 2, 6} {
				checkLayerGradients(t, tc.l, tc.make(rng, b), tc.eps, tc.tol)
			}
		})
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := tensor.RandNormal(rng, 2, 5, 4)
	labels := []int{0, 1, 2, 3, 1}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps, tol = 1e-6, 1e-6
	for i := 0; i < logits.Size(); i++ {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		down, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(grad.Data[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], want)
		}
	}
}
