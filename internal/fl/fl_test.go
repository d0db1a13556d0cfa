package fl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// tinyFederation builds a small, fast federation on SynthMNIST with an MLP,
// shared by the algorithm tests.
func tinyFederation(t *testing.T, clients int, similarity float64, sr float64) *Federation {
	t.Helper()
	train := data.SynthMNIST(600, 1)
	test := data.SynthMNIST(300, 2)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionBySimilarity(train.Y, clients, similarity, rng)
	shards := make([]*data.Dataset, clients)
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	cfg := Config{
		Builder:     nn.NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed:   7,
		Seed:        11,
		LocalSteps:  5,
		BatchSize:   20,
		SampleRatio: sr,
		LR:          opt.ConstLR(0.1),
	}
	return NewFederation(cfg, shards, test)
}

func TestNewFederationWeights(t *testing.T) {
	f := tinyFederation(t, 4, 1.0, 1.0)
	sum := 0.0
	for _, c := range f.Clients {
		if c.Data.Len() == 0 {
			t.Fatal("empty client shard")
		}
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if f.NumParams() <= 0 || f.FeatureDim() != 16 {
		t.Fatalf("NumParams=%d FeatureDim=%d", f.NumParams(), f.FeatureDim())
	}
}

func TestSampleClients(t *testing.T) {
	f := tinyFederation(t, 10, 1.0, 0.3)
	s := f.SampleClients(0)
	if len(s) != 3 {
		t.Fatalf("sampled %d clients, want 3", len(s))
	}
	seen := map[int]bool{}
	for _, k := range s {
		if k < 0 || k >= 10 || seen[k] {
			t.Fatalf("bad sample %v", s)
		}
		seen[k] = true
	}
	// Deterministic per round, different across rounds.
	s2 := f.SampleClients(0)
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("SampleClients must be deterministic per round")
		}
	}
	// Full participation returns everyone in order.
	ffull := tinyFederation(t, 5, 1.0, 1.0)
	all := ffull.SampleClients(3)
	if len(all) != 5 {
		t.Fatalf("full participation sampled %d", len(all))
	}
}

func TestWeightedAverage(t *testing.T) {
	mk := func(n int, vals ...float64) ClientOut {
		ds := &data.Dataset{X: tensor.New(n, 1), Y: make([]int, n), Classes: 2}
		return ClientOut{Client: &Client{Data: ds}, Params: vals}
	}
	got := WeightedAverage([]ClientOut{mk(1, 1, 10), mk(3, 5, 2)})
	// (1·1 + 3·5)/4 = 4 ; (1·10 + 3·2)/4 = 4
	if math.Abs(got[0]-4) > 1e-12 || math.Abs(got[1]-4) > 1e-12 {
		t.Fatalf("WeightedAverage = %v", got)
	}
	// Clients with nil params are skipped.
	got = WeightedAverage([]ClientOut{mk(1, 2, 2), {Client: &Client{Data: &data.Dataset{X: tensor.New(9, 1), Y: make([]int, 9), Classes: 2}}}})
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("nil-params client not skipped: %v", got)
	}
}

func TestPayloadBytes(t *testing.T) {
	if PayloadBytes(0) != 24 || PayloadBytes(100) != 824 {
		t.Fatalf("PayloadBytes: %d, %d", PayloadBytes(0), PayloadBytes(100))
	}
}

func TestFedAvgLearnsIID(t *testing.T) {
	f := tinyFederation(t, 4, 1.0, 1.0)
	h := Run(f, NewFedAvg(), 8)
	if len(h.Rounds) != 8 {
		t.Fatalf("recorded %d rounds", len(h.Rounds))
	}
	first := h.Rounds[0].TestAcc
	last := h.FinalAccuracy(2)
	if !(last > first) || last < 0.6 {
		t.Fatalf("FedAvg did not learn: first %v, last %v", first, last)
	}
	up, down := h.TotalBytes()
	if up <= 0 || down <= 0 {
		t.Fatal("communication bytes not recorded")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	h1 := Run(tinyFederation(t, 4, 0.0, 1.0), NewFedAvg(), 3)
	h2 := Run(tinyFederation(t, 4, 0.0, 1.0), NewFedAvg(), 3)
	for i := range h1.Rounds {
		if h1.Rounds[i].TrainLoss != h2.Rounds[i].TrainLoss {
			t.Fatalf("round %d losses differ: %v vs %v", i, h1.Rounds[i].TrainLoss, h2.Rounds[i].TrainLoss)
		}
		if h1.Rounds[i].TestAcc != h2.Rounds[i].TestAcc {
			t.Fatalf("round %d accs differ", i)
		}
	}
}

func TestFedAvgPartialParticipation(t *testing.T) {
	f := tinyFederation(t, 10, 1.0, 0.3)
	h := Run(f, NewFedAvg(), 10)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("partial participation accuracy %v", h.FinalAccuracy(2))
	}
	// Bytes must reflect 3 sampled clients, not 10.
	per := PayloadBytes(f.NumParams())
	if h.Rounds[0].UpBytes != 3*per {
		t.Fatalf("up bytes %d, want %d", h.Rounds[0].UpBytes, 3*per)
	}
}

func TestFedProxRoundAndProxTermPullsTowardGlobal(t *testing.T) {
	f := tinyFederation(t, 4, 0.0, 1.0)
	// With a strong (but stable, μ·lr < 2) proximal pull the local models move less from the global model.
	prox := NewFedProx(10)
	prox.Setup(f)
	start := append([]float64(nil), prox.GlobalParams()...)
	prox.Round(0, f.SampleClients(0))
	afterHuge := prox.GlobalParams()
	driftHuge := 0.0
	for i := range start {
		d := afterHuge[i] - start[i]
		driftHuge += d * d
	}

	f2 := tinyFederation(t, 4, 0.0, 1.0)
	plain := NewFedProx(0) // μ=0 reduces to FedAvg-like drift
	plain.Setup(f2)
	plain.Round(0, f2.SampleClients(0))
	afterZero := plain.GlobalParams()
	driftZero := 0.0
	for i := range start {
		d := afterZero[i] - start[i]
		driftZero += d * d
	}
	if driftHuge >= driftZero {
		t.Fatalf("proximal term must damp drift: μ=10 drift %v, μ=0 drift %v", driftHuge, driftZero)
	}
}

func TestScaffoldLearnsAndMaintainsVariates(t *testing.T) {
	f := tinyFederation(t, 4, 0.0, 1.0)
	s := NewScaffold(1.0)
	h := Run(f, s, 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("Scaffold accuracy %v", h.FinalAccuracy(2))
	}
	// Server control variate must be non-zero after rounds.
	norm := 0.0
	for _, v := range s.c {
		norm += v * v
	}
	if norm == 0 {
		t.Fatal("server control variate never updated")
	}
	if len(s.clientC) != 4 {
		t.Fatalf("client variates for %d clients, want 4", len(s.clientC))
	}
	// SCAFFOLD ships 2× the payload of FedAvg.
	if h.Rounds[0].UpBytes != 4*2*PayloadBytes(f.NumParams()) {
		t.Fatalf("Scaffold up bytes %d", h.Rounds[0].UpBytes)
	}
}

func TestQFedAvgLearns(t *testing.T) {
	f := tinyFederation(t, 4, 0.0, 1.0)
	h := Run(f, NewQFedAvg(1.0), 10)
	if h.FinalAccuracy(2) < 0.4 {
		t.Fatalf("q-FedAvg accuracy %v", h.FinalAccuracy(2))
	}
}

func TestQFedAvgQZeroTracksFedAvgDirection(t *testing.T) {
	// With q → 0 the q-FedAvg update is a Lipschitz-normalized average of
	// client deltas; it should decrease loss like FedAvg does.
	f := tinyFederation(t, 3, 1.0, 1.0)
	h := Run(f, NewQFedAvg(1e-9), 6)
	if h.Rounds[len(h.Rounds)-1].TrainLoss >= h.Rounds[0].TrainLoss {
		t.Fatalf("loss did not decrease: %v → %v", h.Rounds[0].TrainLoss, h.Rounds[len(h.Rounds)-1].TrainLoss)
	}
}

func TestEvaluatePerClient(t *testing.T) {
	f := tinyFederation(t, 5, 0.0, 1.0)
	a := NewFedAvg()
	h := Run(f, a, 5)
	_ = h
	accs := f.EvaluatePerClient(a.GlobalParams())
	if len(accs) != 5 {
		t.Fatalf("got %d client accuracies", len(accs))
	}
	for k, acc := range accs {
		if acc < 0 || acc > 1 {
			t.Fatalf("client %d accuracy %v", k, acc)
		}
	}
}

func TestEvalEverySkipsRounds(t *testing.T) {
	f := tinyFederation(t, 3, 1.0, 1.0)
	f.Cfg.EvalEvery = 3
	h := Run(f, NewFedAvg(), 7)
	evaluated := 0
	for _, r := range h.Rounds {
		if !math.IsNaN(r.TestAcc) {
			evaluated++
		}
	}
	// Rounds 2, 5 (every 3rd) and the final round 6.
	if evaluated != 3 {
		t.Fatalf("evaluated %d rounds, want 3", evaluated)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers <= 0 || c.EvalEvery != 1 || c.EvalBatch != 256 ||
		c.SampleRatio != 1 || c.LocalSteps != 1 || c.BatchSize != 32 {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.NewOptimizer == nil || c.LR == nil {
		t.Fatal("nil factories not defaulted")
	}
}

func TestLocalTrainDecreasesLoss(t *testing.T) {
	f := tinyFederation(t, 2, 1.0, 1.0)
	w := f.workers[0]
	c := f.Clients[0]
	w.LoadModel(f.InitialParams())
	rng := rand.New(rand.NewSource(1))
	o := f.DefaultLocalOpts(0)
	o.E = 30
	first := f.LocalTrain(w, c, rng, LocalOpts{Round: 0, E: 1, B: o.B, LR: o.LR})
	_ = f.LocalTrain(w, c, rng, o)
	last := f.LocalTrain(w, c, rng, LocalOpts{Round: 0, E: 1, B: o.B, LR: o.LR})
	if last >= first {
		t.Fatalf("local training did not reduce loss: %v → %v", first, last)
	}
}

func TestRMSPropLocalSolver(t *testing.T) {
	f := tinyFederation(t, 3, 1.0, 1.0)
	f.Cfg.NewOptimizer = func() opt.Optimizer { return opt.NewRMSProp() }
	f.Cfg.LR = opt.ConstLR(0.01)
	// Rebuild workers with the new optimizer factory.
	for _, w := range f.workers {
		w.t.Opt = opt.NewRMSProp()
	}
	h := Run(f, NewFedAvg(), 6)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("RMSProp federation accuracy %v", h.FinalAccuracy(2))
	}
}
