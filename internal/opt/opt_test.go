package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadParams builds a single-parameter "model" holding w, and a gradient
// closure for the quadratic f(w) = ½||w - target||².
func quadParams(dim int, seed int64) ([]*nn.Param, []float64) {
	rng := rand.New(rand.NewSource(seed))
	w := tensor.RandNormal(rng, 1, dim)
	target := make([]float64, dim)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	p := &nn.Param{Name: "w", W: w, G: tensor.New(dim)}
	return []*nn.Param{p}, target
}

func fillQuadGrad(p *nn.Param, target []float64) {
	for i := range p.G.Data {
		p.G.Data[i] = p.W.Data[i] - target[i]
	}
}

func distance(p *nn.Param, target []float64) float64 {
	s := 0.0
	for i := range target {
		d := p.W.Data[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func testOptimizerConverges(t *testing.T, o Optimizer, lr float64, steps int) {
	t.Helper()
	params, target := quadParams(10, 1)
	start := distance(params[0], target)
	for i := 0; i < steps; i++ {
		fillQuadGrad(params[0], target)
		o.Step(params, lr)
	}
	end := distance(params[0], target)
	if end > start/100 {
		t.Fatalf("optimizer did not converge: start %v, end %v", start, end)
	}
}

func TestSGDConverges(t *testing.T)     { testOptimizerConverges(t, NewSGD(), 0.1, 200) }
func TestRMSPropConverges(t *testing.T) { testOptimizerConverges(t, NewRMSProp(), 0.05, 500) }

func TestSGDPlainUpdateExact(t *testing.T) {
	p := &nn.Param{W: tensor.FromSlice([]float64{1, 2}, 2), G: tensor.FromSlice([]float64{10, -10}, 2)}
	NewSGD().Step([]*nn.Param{p}, 0.1)
	if p.W.Data[0] != 0 || p.W.Data[1] != 3 {
		t.Fatalf("SGD step: %v", p.W.Data)
	}
}

func TestOptimizerReset(t *testing.T) {
	params, target := quadParams(4, 2)
	o := NewRMSProp()
	fillQuadGrad(params[0], target)
	o.Step(params, 0.1)
	if o.sq == nil {
		t.Fatal("RMSProp state not allocated")
	}
	o.Reset()
	for _, sq := range o.sq {
		for i, x := range sq {
			if x != 0 {
				t.Fatalf("Reset must zero RMSProp state, sq[%d] = %v", i, x)
			}
		}
	}
	// A step after Reset must behave exactly like a fresh optimizer's first
	// step: state is kept allocated (no per-round churn) but starts from zero.
	fresh := []*nn.Param{{W: params[0].W.Clone(), G: tensor.New(4)}}
	fillQuadGrad(params[0], target)
	fillQuadGrad(fresh[0], target)
	o.Step(params, 0.1)
	NewRMSProp().Step(fresh, 0.1)
	for i, want := range fresh[0].W.Data {
		if got := params[0].W.Data[i]; got != want {
			t.Fatalf("post-Reset step w[%d] = %v, a fresh optimizer gives %v", i, got, want)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &nn.Param{W: tensor.New(2), G: tensor.FromSlice([]float64{3, 4}, 2)}
	pre := ClipGradNorm([]*nn.Param{p}, 1.0)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if math.Abs(p.G.Norm()-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", p.G.Norm())
	}
	// Below the threshold, gradients are untouched.
	p.G.Data[0], p.G.Data[1] = 0.3, 0.4
	ClipGradNorm([]*nn.Param{p}, 1.0)
	if p.G.Data[0] != 0.3 || p.G.Data[1] != 0.4 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestSchedules(t *testing.T) {
	if ConstLR(0.1).LR(100) != 0.1 {
		t.Fatal("ConstLR")
	}
	s := NewTheoremLR(2, 8, 5) // μ=2, L=8 → γ = max(8·4, 5) = 32
	if s.Gamma != 32 {
		t.Fatalf("gamma = %v, want 32", s.Gamma)
	}
	if math.Abs(s.LR(0)-2.0/(2*32)) > 1e-15 {
		t.Fatalf("LR(0) = %v", s.LR(0))
	}
	if s.LR(10) >= s.LR(0) {
		t.Fatal("inverse decay must decrease")
	}
	// E dominates when larger than 8κ.
	s2 := NewTheoremLR(1, 1, 100)
	if s2.Gamma != 100 {
		t.Fatalf("gamma = %v, want 100", s2.Gamma)
	}
}
