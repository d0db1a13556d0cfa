package rfedavg_test

import (
	"fmt"

	rfedavg "repro"
)

// Example demonstrates the core workflow: generate data, split it non-IID,
// and train the paper's rFedAvg+ algorithm.
func Example() {
	train := rfedavg.SynthMNIST(400, 1)
	test := rfedavg.SynthMNIST(200, 2)
	shards := rfedavg.SplitBySimilarity(train, 4, 0, 13)

	fed := rfedavg.NewFederation(rfedavg.Config{
		Builder:    rfedavg.NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed:  7,
		Seed:       11,
		LocalSteps: 5,
		BatchSize:  20,
		LR:         rfedavg.ConstLR(0.1),
	}, shards, test)

	hist := rfedavg.Run(fed, rfedavg.NewRFedAvgPlus(1e-3), 8)
	fmt.Println("learned:", hist.FinalAccuracy(2) > 0.5)
	// Output: learned: true
}

// ExampleSplitBySimilarity shows the paper's label-skew partitioner at its
// two extremes.
func ExampleSplitBySimilarity() {
	ds := rfedavg.SynthMNIST(1000, 1)
	nonIID := rfedavg.SplitBySimilarity(ds, 10, 0, 13) // totally non-IID
	iid := rfedavg.SplitBySimilarity(ds, 10, 1, 13)    // IID

	classes := func(shard *rfedavg.Dataset) int {
		seen := map[int]bool{}
		for _, y := range shard.Y {
			seen[y] = true
		}
		return len(seen)
	}
	fmt.Println("non-IID shard sees few classes:", classes(nonIID[0]) <= 3)
	fmt.Println("IID shard sees all classes:", classes(iid[0]) == 10)
	// Output:
	// non-IID shard sees few classes: true
	// IID shard sees all classes: true
}

// ExampleNewGaussianMechanism shows differentially private δ maps.
func ExampleNewGaussianMechanism() {
	mech := rfedavg.NewGaussianMechanism(5.0 /* σ₂ */, 1.0 /* clip */, 50 /* batch */)
	fmt.Printf("per-coordinate noise std: %.1f\n", mech.NoiseStd())
	// Output: per-coordinate noise std: 0.1
}
