package rfedavg

import (
	"math"
	"testing"
)

// TestQuickstartFlow exercises the documented public-API path end to end.
func TestQuickstartFlow(t *testing.T) {
	train, test := SynthMNIST(500, 1), SynthMNIST(250, 2)
	shards := SplitBySimilarity(train, 5, 0, 13)
	if len(shards) != 5 {
		t.Fatalf("got %d shards", len(shards))
	}
	fed := NewFederation(Config{
		Builder:    NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed:  7,
		Seed:       11,
		LocalSteps: 5,
		BatchSize:  20,
		LR:         ConstLR(0.1),
	}, shards, test)
	hist := Run(fed, NewRFedAvgPlus(1e-3), 6)
	if hist.FinalAccuracy(2) < 0.5 {
		t.Fatalf("quickstart accuracy %v", hist.FinalAccuracy(2))
	}
}

func TestAllSplittersProduceShards(t *testing.T) {
	ds := SynthFEMNIST(8, 20, 1)
	for name, shards := range map[string][]*Dataset{
		"similarity": SplitBySimilarity(ds, 4, 0.5, 1),
		"iid":        SplitIID(ds, 4, 1),
		"user":       SplitByUser(ds, 4, 1),
		"dirichlet":  SplitDirichlet(ds, 4, 0.5, 1),
	} {
		if len(shards) != 4 {
			t.Fatalf("%s: %d shards", name, len(shards))
		}
		total := 0
		for _, s := range shards {
			if s.Len() == 0 {
				t.Fatalf("%s: empty shard", name)
			}
			total += s.Len()
		}
		if name != "user" && total != ds.Len() {
			t.Fatalf("%s: shards cover %d of %d", name, total, ds.Len())
		}
	}
}

func TestAllAlgorithmConstructors(t *testing.T) {
	algs := []Algorithm{
		NewFedAvg(), NewFedProx(1), NewScaffold(1), NewQFedAvg(1),
		NewRFedAvg(1e-3), NewRFedAvgPlus(1e-3),
	}
	names := map[string]bool{}
	for _, a := range algs {
		if a.Name() == "" {
			t.Fatal("algorithm with empty name")
		}
		names[a.Name()] = true
	}
	if len(names) != 6 {
		t.Fatalf("expected 6 distinct algorithms, got %v", names)
	}
}

func TestModelBuilders(t *testing.T) {
	for _, b := range []Builder{
		NewImageCNN(SynthMNISTSpec, 16),
		NewImageCNN(SynthCIFARSpec, 16),
		NewImageCNN(SynthFEMNISTSpec, 16),
		NewTextLSTM(SynthSent140Spec, 8, 12, 16),
		NewMLP(10, 8, 16, 3),
	} {
		net := b(1)
		if net.FeatureDim != 16 || net.NumParams() == 0 {
			t.Fatalf("bad network: d=%d params=%d", net.FeatureDim, net.NumParams())
		}
	}
}

func TestMMDSquared(t *testing.T) {
	if MMDSquared([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Fatal("MMDSquared")
	}
}

func TestGaussianMechanismAndFairness(t *testing.T) {
	g := NewGaussianMechanism(2, 1, 4)
	if g.NoiseStd() != 0.5 {
		t.Fatalf("NoiseStd = %v", g.NoiseStd())
	}
	f := NewFairness([]float64{0.5, 1.0})
	if math.Abs(f.Mean-0.75) > 1e-12 {
		t.Fatalf("fairness mean %v", f.Mean)
	}
}

func TestSamplersViaAPI(t *testing.T) {
	train := SynthMNIST(400, 1)
	shards := SplitBySimilarity(train, 8, 0.5, 13)
	for _, s := range []Sampler{Uniform, SizeWeighted, NewPowerOfChoiceSampler(2)} {
		fed := NewFederation(Config{
			Builder:   NewMLP(train.Features(), 16, 8, train.Classes),
			ModelSeed: 7, Seed: 11, LocalSteps: 2, BatchSize: 10,
			SampleRatio: 0.25, Sampler: s,
		}, shards, nil)
		cohort := fed.SampleClients(0)
		if len(cohort) != 2 {
			t.Fatalf("%s cohort size %d", s.Name(), len(cohort))
		}
	}
}

func TestMOONAndFedNovaViaAPI(t *testing.T) {
	train, test := SynthMNIST(400, 1), SynthMNIST(200, 2)
	shards := SplitBySimilarity(train, 3, 0, 13)
	cfg := Config{
		Builder:   NewMLP(train.Features(), 24, 12, train.Classes),
		ModelSeed: 7, Seed: 11, LocalSteps: 3, BatchSize: 20,
	}
	for _, alg := range []Algorithm{NewMOON(1.0, 0.5), NewFedNova()} {
		fed := NewFederation(cfg, shards, test)
		h := Run(fed, alg, 8)
		if h.FinalAccuracy(2) < 0.3 {
			t.Fatalf("%s accuracy %v", alg.Name(), h.FinalAccuracy(2))
		}
	}
}

func TestPersonalizeViaAPI(t *testing.T) {
	train := SynthMNIST(400, 1)
	shards := SplitBySimilarity(train, 4, 0, 13)
	fed := NewFederation(Config{
		Builder:   NewMLP(train.Features(), 24, 12, train.Classes),
		ModelSeed: 7, Seed: 11, LocalSteps: 3, BatchSize: 20,
	}, shards, nil)
	alg := NewFedAvg()
	Run(fed, alg, 3)
	accs := fed.Personalize(alg.GlobalParams(), PersonalizeOptions{Steps: 10, Seed: 1})
	if len(accs) != 4 {
		t.Fatalf("personalized %d clients", len(accs))
	}
}
