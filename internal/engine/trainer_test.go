package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// refConfig is what the parent's local loop read of transport.ClientConfig.
type refConfig struct {
	LocalSteps, BatchSize int
	LR                    opt.Schedule
	Lambda                float64
}

// refRegFeatureGrad is core.RegFeatureGrad as it was: the allocating twin of
// RegFeatureGradInto.
func refRegFeatureGrad(feat *tensor.Tensor, target []float64, lambda float64) *tensor.Tensor {
	return core.RegFeatureGradInto(tensor.New(feat.Dim(0), feat.Dim(1)), make([]float64, feat.Dim(1)),
		feat, target, lambda)
}

// refLocalSteps is the transport client's local loop as it stood before the
// Trainer (transport.localSteps, minus its spans): a fresh permutation, batch,
// loss gradient and regulariser gradient every step. It is the allocating
// reference Trainer.Steps is held to, bit for bit.
func refLocalSteps(net *nn.Network, localOpt opt.Optimizer, shard *data.Dataset,
	rng *rand.Rand, cfg refConfig, round int, target []float64) float64 {
	params := net.Params()
	total := 0.0
	for i := 0; i < cfg.LocalSteps; i++ {
		idx := shard.RandomBatch(rng, cfg.BatchSize)
		x, y := shard.Gather(idx)
		feat, logits := net.Forward(x, true)
		loss, dlogits := nn.SoftmaxCrossEntropy(logits, y)
		total += loss
		net.ZeroGrad()
		if len(target) == net.FeatureDim && cfg.Lambda != 0 {
			rg := refRegFeatureGrad(feat, target, cfg.Lambda)
			net.Backward(dlogits, rg)
		} else {
			net.Backward(dlogits, nil)
		}
		localOpt.Step(params, cfg.LR.LR(round*cfg.LocalSteps+i))
	}
	return total / float64(cfg.LocalSteps)
}

// steps is the transport client's round on the Trainer: the same options it
// builds, the regulariser attached under the same condition.
func steps(t *engine.Trainer, shard *data.Dataset, rng *rand.Rand, cfg refConfig, round int, target []float64) float64 {
	o := engine.LocalSteps{Round: round, E: cfg.LocalSteps, B: cfg.BatchSize,
		LR: func(i int) float64 { return cfg.LR.LR(round*cfg.LocalSteps + i) }}
	if len(target) > 0 && cfg.Lambda != 0 {
		o.FeatGrad = core.RegTerm(t.Arena, target, cfg.Lambda)
	}
	return t.Steps(shard, rng, o, telemetry.ActiveSpan{})
}

const trainerFeatureDim = 12

var trainerBuilders = map[string]nn.Builder{
	"mlp": nn.NewMLP(data.SynthMNISTSpec.InFeatures(), 32, trainerFeatureDim, data.SynthMNISTSpec.Classes),
	"cnn": nn.NewImageCNN(data.SynthMNISTSpec, trainerFeatureDim),
}

// TestStepsMatchesParentLocalSteps holds Trainer.Steps to the parent's
// allocating loop with == on every weight, the returned loss and the RNG's
// next draw, over two rounds on one Trainer so that the second runs on warm
// arena buffers holding the first's batch.
func TestStepsMatchesParentLocalSteps(t *testing.T) {
	const n = 40
	shard := data.SynthMNIST(n, 4)
	random := make([]float64, trainerFeatureDim)
	for i, rng := 0, rand.New(rand.NewSource(6)); i < len(random); i++ {
		random[i] = rng.NormFloat64()
	}
	targets := map[string][]float64{"no target": nil, "zero target": make([]float64, trainerFeatureDim), "random target": random}
	for name, build := range trainerBuilders {
		for _, e := range []int{1, 5} {
			for _, b := range []int{8, n, n + 3} {
				for tname, target := range targets {
					t.Run(fmt.Sprintf("%s/E=%d/B=%d/%s", name, e, b, tname), func(t *testing.T) {
						cfg := refConfig{LocalSteps: e, BatchSize: b, LR: opt.InverseDecayLR{Mu: 1, Gamma: 20}, Lambda: 0.3}
						refNet, refOpt, refRNG := build(9), opt.NewRMSProp(), rand.New(rand.NewSource(17))
						tr := &engine.Trainer{Net: build(9), Opt: opt.NewRMSProp(), Arena: nn.NewArena()}
						rng := rand.New(rand.NewSource(17))
						for round := 0; round < 2; round++ {
							want := refLocalSteps(refNet, refOpt, shard, refRNG, cfg, round, target)
							got := steps(tr, shard, rng, cfg, round, target)
							if got != want {
								t.Fatalf("round %d: loss %v, the parent's loop gives %v", round, got, want)
							}
							trained := tr.Net.GetFlat()
							for i, w := range refNet.GetFlat() {
								if g := trained[i]; g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
									t.Fatalf("round %d: weight %d is %v, the parent's loop gives %v", round, i, g, w)
								}
							}
							if g, w := rng.Int63(), refRNG.Int63(); g != w {
								t.Fatalf("round %d: the RNG's next draw is %d, after the parent's loop %d", round, g, w)
							}
						}
					})
				}
			}
		}
	}
}

// TestStepsSteadyStateAllocs: a warm client round allocates nothing, with the
// regulariser's hook attached or not — the options and their closures
// included, as each driver builds them per round: Steps must not let them
// escape (a span carried inside LocalSteps did, at two objects per client per
// round on the simulator).
func TestStepsSteadyStateAllocs(t *testing.T) {
	defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(1))
	shard := data.SynthMNIST(64, 4)
	cfg := refConfig{LocalSteps: 2, BatchSize: 8, LR: opt.ConstLR(0.05), Lambda: 0.3}
	for name, build := range trainerBuilders {
		for _, target := range [][]float64{nil, make([]float64, trainerFeatureDim)} {
			tr := &engine.Trainer{Net: build(9), Opt: opt.NewSGD(), Arena: nn.NewArena()}
			rng := rand.New(rand.NewSource(2))
			round := func() { steps(tr, shard, rng, cfg, 1, target) }
			for i := 0; i < 3; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
				t.Errorf("%s, regulariser %v: a warm client round allocates %.1f objects, want 0", name, target != nil, allocs)
			}
		}
	}
}

// TestTamperFactor pins the Byzantine rewrite rule both drivers share.
func TestTamperFactor(t *testing.T) {
	g := []float64{1, -2, 0.5}
	honest := []float64{1.25, -1, 0.5}
	for _, tc := range []struct {
		signFlip bool
		scale    float64
		fac      float64
	}{{false, 0, 1}, {false, -3, 1}, {true, 0, -1}, {false, 10, 10}, {true, 10, -10}, {false, 1, 1}} {
		w := append([]float64(nil), honest...)
		engine.Tamper(w, g, tc.signFlip, tc.scale)
		for i := range w {
			want := g[i] + tc.fac*(honest[i]-g[i])
			if tc.fac == 1 {
				want = honest[i] // the honest client's bits, not g + (w − g)
			}
			if w[i] != want {
				t.Errorf("signFlip=%v scale=%v: w[%d] = %v, want %v", tc.signFlip, tc.scale, i, w[i], want)
			}
		}
	}
}
