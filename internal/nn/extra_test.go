package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestConv2DRectangularInput covers non-square spatial dims end to end.
func TestConv2DRectangularInput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 2, 6, 10, 3, 3, 1, 1)
	if c.OutH != 6 || c.OutW != 10 {
		t.Fatalf("same-pad output %dx%d", c.OutH, c.OutW)
	}
	x := tensor.RandNormal(rng, 1, 2, 2*6*10)
	out := c.Forward(x, true)
	if out.Dim(1) != 3*6*10 {
		t.Fatalf("output width %d", out.Dim(1))
	}
	checkLayerGradients(t, c, x, 1e-6, 1e-5)
}

// TestConv2DKnownValues pins a hand-computed 1-channel convolution.
func TestConv2DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewConv2D(rng, 1, 3, 3, 1, 3, 1, 0) // single 3×3 kernel, valid conv
	// Overwrite weights with an identity-like kernel: only center tap = 2.
	c.w.W.Zero()
	c.w.W.Data[4] = 2
	c.b.W.Data[0] = 0.5
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 9)
	out := c.Forward(x, false)
	// Valid 3×3 conv on 3×3 input → single output = 2·center + bias = 10.5.
	if out.Size() != 1 || out.Data[0] != 10.5 {
		t.Fatalf("conv output %v, want [10.5]", out.Data)
	}
}

// TestMaxPoolKnownValues pins pooling behavior.
func TestMaxPoolKnownValues(t *testing.T) {
	m := NewMaxPool2D(1, 4, 4, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 16)
	out := m.Forward(x, true)
	want := []float64{4, 8, 12, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("pool output %v, want %v", out.Data, want)
		}
	}
	// Gradient routes to the argmax positions only.
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	dx := m.Backward(g)
	nonzero := 0
	for _, v := range dx.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 4 {
		t.Fatalf("pool backward spread to %d cells, want 4", nonzero)
	}
}

// TestMaxPoolNonFiniteWindows: a NaN anywhere in a window is the window's
// output (it used to vanish, and an all-NaN window left argmax at −1 for
// Backward to index with), ±Inf compete as ordinary values, and argmax is a
// cell of the window in every case, first on ties — in both modes, with the
// training-mode gradient landing on exactly that cell.
func TestMaxPoolNonFiniteWindows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		window [4]float64
		arg    int
	}{
		{[4]float64{nan, nan, nan, nan}, 0},
		{[4]float64{1, nan, 3, 2}, 1},
		{[4]float64{1, 9, nan, nan}, 2},
		{[4]float64{nan, 1, inf, 3}, 0},
		{[4]float64{inf, 1, nan, 3}, 2},
		{[4]float64{-inf, -inf, -inf, -inf}, 0},
		{[4]float64{-inf, -inf, 3, -inf}, 2},
		{[4]float64{-inf, inf, 1, inf}, 1},
		{[4]float64{2, 5, 5, 1}, 1},
		{[4]float64{math.Copysign(0, -1), 0, 0, -1}, 0},
	} {
		for _, train := range []bool{true, false} {
			m := NewMaxPool2D(1, 2, 2, 2)
			out := m.Forward(tensor.FromSlice(tc.window[:], 1, 4), train)
			if got, want := math.Float64bits(out.Data[0]), math.Float64bits(tc.window[tc.arg]); got != want {
				t.Fatalf("window %v train %v: output %v, want cell %d", tc.window, train, out.Data[0], tc.arg)
			}
			if !train {
				continue
			}
			dx := m.Backward(tensor.FromSlice([]float64{7}, 1, 1))
			for i, v := range dx.Data {
				want := 0.0
				if i == tc.arg {
					want = 7
				}
				if v != want {
					t.Fatalf("window %v: dx %v, want 7 at cell %d only", tc.window, dx.Data, tc.arg)
				}
			}
		}
	}

	// One NaN in a batch of two 2-channel images: only its window sees it,
	// and argmax is an offset into the sample, not the band.
	rng := rand.New(rand.NewSource(11))
	m := NewMaxPool2D(2, 4, 4, 2)
	x := tensor.RandNormal(rng, 1, 2, 32)
	const at = 16 + 3*4 + 2 // channel 1, y 3, x 2
	x.Row(1)[at] = nan
	out := m.Forward(x, true)
	for i, v := range out.Data {
		if isNaN, want := v != v, i == 8+4+3; isNaN != want {
			t.Fatalf("out[%d] = %v, NaN expected only at the poisoned window", i, v)
		}
	}
	if got := m.argmax[8+4+3]; got != at {
		t.Fatalf("argmax of the poisoned window = %d, want %d", got, at)
	}
}

// TestLSTMDeterministicAcrossForwardCalls verifies stateless-per-call
// semantics: the same input gives the same output on repeated calls.
func TestLSTMDeterministicAcrossForwardCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, 3, 5, 4)
	x := tensor.RandNormal(rng, 1, 2, 12)
	a := l.Forward(x, true).Clone()
	b := l.Forward(x, true)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("LSTM forward must not carry state across calls")
		}
	}
}

// TestLSTMForgetBiasInit verifies the forget-gate bias trick.
func TestLSTMForgetBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(rng, 3, 4, 2)
	b := l.b.W.Data
	for j := 0; j < 4; j++ {
		if b[j] != 0 || b[4+j] != 1 || b[8+j] != 0 || b[12+j] != 0 {
			t.Fatalf("bias layout wrong at %d: %v", j, b)
		}
	}
}

// TestSequentialNilGradientOnlyFirstLayer: a mid-stack embedding (nil input
// gradient) must panic loudly instead of silently truncating backprop.
func TestSequentialNilGradientOnlyFirstLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSequential(NewDense(rng, 4, 3), NewEmbedding(rng, 10, 2))
	x := tensor.New(1, 4)
	x.Data[0] = 1
	out := s.Forward(x, true) // dense output used as (nonsense) token ids?
	_ = out
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil gradient from a non-first layer")
		}
	}()
	s.Backward(tensor.New(1, out.Dim(1)))
}

// TestCrossEntropyAgainstManual pins the loss value for a tiny case.
func TestCrossEntropyAgainstManual(t *testing.T) {
	logits := tensor.FromSlice([]float64{math.Log(1), math.Log(3)}, 1, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{1})
	if math.Abs(loss-(-math.Log(0.75))) > 1e-12 {
		t.Fatalf("loss = %v, want %v", loss, -math.Log(0.75))
	}
	if math.Abs(grad.Data[0]-0.25) > 1e-12 || math.Abs(grad.Data[1]-(-0.25)) > 1e-12 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

// TestFeatureParamsSubset verifies the (w̃, w̿) split: feature params plus
// head params partition the full parameter list, in order.
func TestFeatureParamsSubset(t *testing.T) {
	net := NewMLP(4, 6, 3, 2)(1)
	all := net.Params()
	feat := net.Feature.Params()
	if len(feat) >= len(all) {
		t.Fatal("head must own parameters too")
	}
	for i := range feat {
		if all[i] != feat[i] {
			t.Fatal("feature params must prefix the full list")
		}
	}
}

// The arena free list hands back the arena last put back, each one once, and
// a new arena when it holds none; it holds what was put back and not taken.
func TestArenaFreeList(t *testing.T) {
	base := FreeArenas()
	a, b := NewArena(), NewArena()
	PutArena(a)
	PutArena(b)
	if n := FreeArenas(); n != base+2 {
		t.Fatalf("free list holds %d arenas after two puts, want %d", n, base+2)
	}
	if got := GetArena(); got != b {
		t.Fatal("GetArena did not return the arena last put back")
	}
	if got := GetArena(); got != a {
		t.Fatal("GetArena did not return the arena put back before it")
	}
	if n := FreeArenas(); n != base {
		t.Fatalf("free list holds %d arenas after taking both back, want %d", n, base)
	}
	for range base {
		GetArena()
	}
	if got := GetArena(); got == a || got == b || len(got.tensors) != 0 {
		t.Fatal("an empty free list did not make a new arena")
	}
}

// An arena's random source, reseeded, draws what a new source of that seed
// draws, whatever its earlier use left behind — a part-read Read included,
// whose leftover bytes the Rand keeps apart from its source.
func TestArenaRandReseeds(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		var out []int64
		for _, v := range r.Perm(20) {
			out = append(out, int64(v))
		}
		for _, n := range []int{7, 1000, 1 << 40} {
			out = append(out, int64(r.Intn(n)))
		}
		b := make([]byte, 5)
		r.Read(b)
		for _, x := range b {
			out = append(out, int64(x))
		}
		return append(out, r.Int63())
	}
	a := NewArena()
	first := a.Rand(3)
	for i, seed := range []int64{3, 3, 1_000_004, -9} {
		r := a.Rand(seed)
		if r != first {
			t.Fatal("Rand replaced the arena's source")
		}
		want := draws(rand.New(rand.NewSource(seed)))
		got := draws(r)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("use %d, seed %d: draw %d is %d, a new source draws %d", i, seed, j, got[j], want[j])
			}
		}
		r.Read(make([]byte, 3)) // leave the read position mid-value
	}
}
