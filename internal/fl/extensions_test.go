package fl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// --- Samplers ---

func TestUniformSamplerIsDefault(t *testing.T) {
	f := tinyFederation(t, 6, 1.0, 0.5)
	if f.Cfg.Sampler.Name() != "uniform" {
		t.Fatalf("default sampler = %s", f.Cfg.Sampler.Name())
	}
	if got := len(f.SampleClients(0)); got != 3 {
		t.Fatalf("cohort size %d", got)
	}
}

// UniformSampler draws through engine.Sample since PR 21; these ordered
// cohorts were recorded at its parent, from rng.Perm(N)[:⌈SR·N⌉] — a cohort
// that takes everyone (SR = 1, or ⌈0.99·33⌉ = 33) is the index order, drawn
// from nothing.
func TestUniformSamplerPinnedCohorts(t *testing.T) {
	ds := data.SynthMNIST(1000, 1)
	for _, c := range []struct {
		seed  int64
		round int
		n     int
		sr    float64
		want  []int
	}{
		{1, 0, 10, 0.3, []int{5, 1, 8}},
		{7, 3, 16, 0.25, []int{7, 13, 9, 1}},
		{42, 11, 100, 0.1, []int{22, 56, 70, 97, 25, 82, 12, 40, 81, 92}},
		{9, 4, 1000, 0.004, []int{982, 548, 745, 465}},
		{5005, 129, 8, 1, seq(0, 8)},
		{-3, 2, 33, 0.99, seq(0, 33)},
	} {
		shards := make([]*data.Dataset, c.n)
		for k := range shards {
			shards[k] = ds.Subset([]int{k})
		}
		cfg := Config{Builder: nn.NewMLP(ds.Features(), 2, 2, ds.Classes), Seed: c.seed, SampleRatio: c.sr, Workers: 1}
		got := UniformSampler{}.Sample(NewFederation(cfg, shards, nil), c.round)
		if len(got) != len(c.want) {
			t.Fatalf("seed %d round %d N %d SR %v: cohort %v, want %v", c.seed, c.round, c.n, c.sr, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("seed %d round %d N %d SR %v: cohort %v, want %v", c.seed, c.round, c.n, c.sr, got, c.want)
			}
		}
	}
}

func TestSizeWeightedSamplerPrefersLargeShards(t *testing.T) {
	// Build a federation with one huge client and many tiny ones.
	big := data.SynthMNIST(300, 1)
	shards := []*data.Dataset{big.Subset(seq(0, 260))}
	for k := 0; k < 9; k++ {
		shards = append(shards, big.Subset(seq(260+k*4, 260+k*4+4)))
	}
	cfg := Config{
		Builder: nn.NewMLP(big.Features(), 8, 4, big.Classes),
		Seed:    3, SampleRatio: 0.2, Sampler: SizeWeightedSampler{},
	}
	f := NewFederation(cfg, shards, nil)
	hits := 0
	const rounds = 50
	for r := 0; r < rounds; r++ {
		for _, k := range f.SampleClients(r) {
			if k == 0 {
				hits++
			}
		}
	}
	// Client 0 holds ~88% of the data; with 2 slots/round it should be
	// picked nearly every round. Uniform would pick it ~20% of rounds.
	if hits < rounds*3/4 {
		t.Fatalf("size-weighted sampler picked the big client only %d/%d rounds", hits, rounds)
	}
}

func TestPowerOfChoicePrefersHighLoss(t *testing.T) {
	f := tinyFederation(t, 10, 1.0, 0.3)
	s := NewPowerOfChoiceSampler(3)
	f.Cfg.Sampler = s
	// Mark clients 0..4 as low-loss, 5..9 as high-loss.
	for id := 0; id < 10; id++ {
		loss := 0.1
		if id >= 5 {
			loss = 5.0
		}
		s.Observe(id, loss)
	}
	high := 0
	total := 0
	for r := 0; r < 30; r++ {
		for _, k := range f.SampleClients(r) {
			total++
			if k >= 5 {
				high++
			}
		}
	}
	if float64(high)/float64(total) < 0.7 {
		t.Fatalf("power-of-choice picked high-loss clients only %d/%d times", high, total)
	}
}

func TestPowerOfChoiceExploresUnseen(t *testing.T) {
	f := tinyFederation(t, 6, 1.0, 0.5)
	s := NewPowerOfChoiceSampler(2)
	f.Cfg.Sampler = s
	s.Observe(0, 0.1) // only client 0 seen; the rest rank as +Inf
	picked := f.SampleClients(1)
	for _, k := range picked {
		if k == 0 {
			t.Fatalf("seen low-loss client picked over unseen ones: %v", picked)
		}
	}
}

func TestRunFeedsLossObserver(t *testing.T) {
	f := tinyFederation(t, 5, 0.0, 1.0)
	s := NewPowerOfChoiceSampler(2)
	f.Cfg.Sampler = s
	Run(f, NewFedAvg(), 2)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.losses) != 5 {
		t.Fatalf("observer saw %d clients, want 5", len(s.losses))
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// --- FedNova ---

func TestFedNovaLearns(t *testing.T) {
	f := quantitySkewFederation(t)
	h := Run(f, NewFedNova(), 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("FedNova accuracy %v", h.FinalAccuracy(2))
	}
}

func TestFedNovaStepsScaleWithShardSize(t *testing.T) {
	f := quantitySkewFederation(t)
	a := NewFedNova()
	a.Setup(f)
	big, small := 0, math.MaxInt
	for _, c := range f.Clients {
		tau := a.LocalSteps(c)
		if tau > big {
			big = tau
		}
		if tau < small {
			small = tau
		}
	}
	if big <= small {
		t.Fatalf("expected heterogeneous steps, got uniform %d", big)
	}
}

func TestFedNovaUniformStepsMatchesFedAvg(t *testing.T) {
	// With ProportionalSteps off, FedNova's normalized update reduces to
	// exactly FedAvg's averaged model — also with a sign-flipping client in
	// the cohort: FedNova reports the local model like everyone else, so the
	// Byzantine rewrite mirrors a model around the global and the health
	// monitor measures ‖w_k − w‖, not a normalized step read as a model (which
	// sent the loss to 34 by round 2).
	for name, byz := range map[string]map[int]Byzantine{"honest": nil, "signflip": {1: {SignFlip: true}}} {
		run := func(alg Algorithm) (*metrics.History, map[int]float64) {
			f := tinyFederation(t, 3, 0.0, 1.0)
			f.Cfg.Byzantine = byz
			f.Cfg.Health = health.New(health.Config{Registry: telemetry.NewRegistry()})
			h := Run(f, alg, 3)
			norms := map[int]float64{}
			for _, c := range f.Cfg.Health.Snapshot(0).Clients {
				norms[c.ID] = float64(c.Norm)
			}
			return h, norms
		}
		hA, normsA := run(NewFedAvg())
		hB, normsB := run(&FedNova{ProportionalSteps: false})
		for i := range hA.Rounds {
			if math.Abs(hA.Rounds[i].TrainLoss-hB.Rounds[i].TrainLoss) > 1e-9 {
				t.Fatalf("%s round %d: FedNova(uniform) loss %v != FedAvg %v",
					name, i, hB.Rounds[i].TrainLoss, hA.Rounds[i].TrainLoss)
			}
			if math.Abs(hA.Rounds[i].TestAcc-hB.Rounds[i].TestAcc) > 1e-9 {
				t.Fatalf("%s round %d accuracies differ", name, i)
			}
		}
		for id, want := range normsA {
			if len(normsA) != 3 || math.Abs(normsB[id]-want) > 1e-9 {
				t.Fatalf("%s: health monitor saw client norms %v under FedNova, %v under FedAvg", name, normsB, normsA)
			}
		}
	}
}

func quantitySkewFederation(t *testing.T) *Federation {
	t.Helper()
	train := data.SynthMNIST(600, 1)
	test := data.SynthMNIST(300, 2)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionQuantitySkew(train.Len(), 5, 1.2, rng)
	shards := make([]*data.Dataset, len(parts))
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	return NewFederation(Config{
		Builder:   nn.NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed: 7, Seed: 11, LocalSteps: 5, BatchSize: 20,
	}, shards, test)
}

// --- MOON ---

func TestMOONLearns(t *testing.T) {
	f := tinyFederation(t, 4, 0.0, 1.0)
	h := Run(f, NewMOON(1.0, 0.5), 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("MOON accuracy %v", h.FinalAccuracy(2))
	}
}

func TestMOONTracksPreviousModels(t *testing.T) {
	f := tinyFederation(t, 3, 0.0, 1.0)
	a := NewMOON(1.0, 0.5)
	Run(f, a, 2)
	if len(a.prev) != 3 {
		t.Fatalf("previous models for %d clients, want 3", len(a.prev))
	}
}

// TestMOONContrastiveGradNumeric checks the hand-derived contrastive
// gradient against finite differences of ContrastiveLoss.
func TestMOONContrastiveGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMOON(0.7, 0.5)
	z := tensor.RandNormal(rng, 1, 4, 6)
	zg := tensor.RandNormal(rng, 1, 4, 6)
	zp := tensor.RandNormal(rng, 1, 4, 6)
	grad := a.contrastiveGrad(z, zg, zp)
	const eps, tol = 1e-6, 1e-5
	for i := range z.Data {
		orig := z.Data[i]
		z.Data[i] = orig + eps
		up := a.Mu * a.ContrastiveLoss(z, zg, zp)
		z.Data[i] = orig - eps
		down := a.Mu * a.ContrastiveLoss(z, zg, zp)
		z.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(grad.Data[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("contrastive grad[%d] = %v, numeric %v", i, grad.Data[i], want)
		}
	}
}

func TestCosineAndGrad(t *testing.T) {
	c, g := cosineAndGrad([]float64{1, 0}, []float64{0, 1})
	if c != 0 || g[0] != 0 || g[1] != 1 {
		t.Fatalf("cosine = %v grad = %v", c, g)
	}
	c, _ = cosineAndGrad([]float64{2, 0}, []float64{5, 0})
	if math.Abs(c-1) > 1e-12 {
		t.Fatalf("parallel cosine = %v", c)
	}
	c, g = cosineAndGrad([]float64{0, 0}, []float64{1, 1})
	if c != 0 || g[0] != 0 {
		t.Fatal("degenerate cosine must be 0 with zero grad")
	}
}

// --- Personalization ---

func TestPersonalizeImprovesOverGlobalOnNonIID(t *testing.T) {
	f := tinyFederation(t, 5, 0.0, 1.0)
	a := NewFedAvg()
	Run(f, a, 4)
	global := a.GlobalParams()
	base := f.Personalize(global, PersonalizeOptions{Steps: 0, Seed: 1})
	tuned := f.Personalize(global, PersonalizeOptions{Steps: 20, LR: 0.05, Seed: 1})
	meanBase, meanTuned := 0.0, 0.0
	for k := range base {
		meanBase += base[k]
		meanTuned += tuned[k]
	}
	// On totally non-IID shards (≈2 classes each) a few local steps give a
	// large boost — the personalization premise.
	if meanTuned <= meanBase {
		t.Fatalf("fine-tuning did not help: base %v, tuned %v", meanBase/5, meanTuned/5)
	}
}

func TestPersonalizeDoesNotMutateGlobal(t *testing.T) {
	f := tinyFederation(t, 3, 0.0, 1.0)
	a := NewFedAvg()
	Run(f, a, 2)
	global := a.GlobalParams()
	snapshot := append([]float64(nil), global...)
	f.Personalize(global, PersonalizeOptions{Steps: 5, Seed: 1})
	for i := range global {
		if global[i] != snapshot[i] {
			t.Fatal("Personalize must not modify the global model")
		}
	}
}

func TestPersonalizeDeterministic(t *testing.T) {
	f := tinyFederation(t, 3, 0.0, 1.0)
	a := NewFedAvg()
	Run(f, a, 2)
	x := f.Personalize(a.GlobalParams(), PersonalizeOptions{Steps: 5, Seed: 9})
	y := f.Personalize(a.GlobalParams(), PersonalizeOptions{Steps: 5, Seed: 9})
	for k := range x {
		if x[k] != y[k] {
			t.Fatal("same seed must reproduce personalization")
		}
	}
}

// Property: WeightedAverage of identical vectors is that vector, and the
// average is permutation-invariant.
func TestQuickWeightedAverageProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(5)
		dim := 1 + rng.Intn(20)
		mk := func(n int, v []float64) ClientOut {
			ds := &data.Dataset{X: tensor.New(n, 1), Y: make([]int, n), Classes: 2}
			return ClientOut{Client: &Client{Data: ds}, Params: v}
		}
		// Identical vectors → identity.
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		var same []ClientOut
		for i := 0; i < k; i++ {
			same = append(same, mk(1+rng.Intn(9), v))
		}
		got := WeightedAverage(same)
		for i := range v {
			if math.Abs(got[i]-v[i]) > 1e-9 {
				return false
			}
		}
		// Permutation invariance.
		var outs []ClientOut
		for i := 0; i < k; i++ {
			u := make([]float64, dim)
			for j := range u {
				u[j] = rng.NormFloat64()
			}
			outs = append(outs, mk(1+rng.Intn(9), u))
		}
		a := WeightedAverage(outs)
		perm := rng.Perm(k)
		shuffled := make([]ClientOut, k)
		for i, p := range perm {
			shuffled[i] = outs[p]
		}
		b := WeightedAverage(shuffled)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every sampler returns a valid cohort — distinct ids in range,
// of the configured size.
func TestQuickSamplersValidCohorts(t *testing.T) {
	f := tinyFederation(t, 12, 1.0, 0.25)
	poc := NewPowerOfChoiceSampler(2.5)
	for id := 0; id < 12; id++ {
		poc.Observe(id, float64(id))
	}
	check := func(seed int64) bool {
		for _, s := range []Sampler{UniformSampler{}, SizeWeightedSampler{}, poc} {
			cohort := s.Sample(f, int(seed%1000))
			if len(cohort) != 3 {
				return false
			}
			seen := map[int]bool{}
			for _, k := range cohort {
				if k < 0 || k >= 12 || seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- FedAvgM ---

func TestFedAvgMLearns(t *testing.T) {
	f := tinyFederation(t, 4, 0.0, 1.0)
	h := Run(f, NewFedAvgM(0.9), 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("FedAvgM accuracy %v", h.FinalAccuracy(2))
	}
}

func TestFedAvgMZeroBetaMatchesFedAvg(t *testing.T) {
	fA := tinyFederation(t, 3, 0.0, 1.0)
	hA := Run(fA, NewFedAvg(), 3)
	fB := tinyFederation(t, 3, 0.0, 1.0)
	hB := Run(fB, NewFedAvgM(0), 3)
	for i := range hA.Rounds {
		if math.Abs(hA.Rounds[i].TrainLoss-hB.Rounds[i].TrainLoss) > 1e-12 {
			t.Fatalf("β=0 must reproduce FedAvg (round %d)", i)
		}
	}
}

func TestFedAvgMVelocityAccumulates(t *testing.T) {
	f := tinyFederation(t, 3, 0.0, 1.0)
	a := NewFedAvgM(0.9)
	Run(f, a, 2)
	norm := 0.0
	for _, v := range a.velocity {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("server momentum never accumulated")
	}
}
