// Efficient uplink: bandwidth-constrained devices upload their model
// updates under a lossy wire scheme (float32, 8-bit or 1-bit quantization,
// the last two with error feedback) while the server biases selection
// toward struggling clients (power-of-choice). Together these shrink upload
// volume by up to an order of magnitude at minor accuracy cost — the
// communication-efficiency directions from the paper's related work, on the
// same codec a real deployment frames on the socket.
//
//	go run ./examples/efficient_uplink
package main

import (
	"fmt"

	rfedavg "repro"
)

func main() {
	train := rfedavg.SynthMNIST(3000, 1)
	test := rfedavg.SynthMNIST(800, 2)
	shards := rfedavg.SplitBySimilarity(train, 20, 0, 13)

	base := rfedavg.Config{
		Builder:     rfedavg.NewImageCNN(rfedavg.SynthMNISTSpec, 48),
		ModelSeed:   7,
		Seed:        11,
		LocalSteps:  5,
		BatchSize:   32,
		SampleRatio: 0.25,
		LR:          rfedavg.ConstLR(0.1),
	}

	variants := []struct {
		name    string
		scheme  rfedavg.Scheme
		ef      bool
		sampler rfedavg.Sampler
	}{
		{"dense + uniform", rfedavg.SchemeDense, false, rfedavg.Uniform},
		{"f32 + uniform", rfedavg.SchemeF32, false, rfedavg.Uniform},
		{"q8+EF + uniform", rfedavg.SchemeInt8, true, rfedavg.Uniform},
		{"q1+EF + uniform", rfedavg.SchemeBit1, true, rfedavg.Uniform},
		{"q8+EF + power-of-choice", rfedavg.SchemeInt8, true, rfedavg.NewPowerOfChoiceSampler(3)},
	}

	fmt.Println("20 devices, 25% participation, totally non-IID MNIST, 15 rounds:")
	for _, v := range variants {
		cfg := base
		cfg.Sampler = v.sampler
		cfg.Compress, cfg.CompressEF = v.scheme, v.ef
		fed := rfedavg.NewFederation(cfg, shards, test)
		hist := rfedavg.Run(fed, rfedavg.NewFedAvg(), 15)
		up, _ := hist.TotalBytes()
		fmt.Printf("  %-24s final acc %.4f  upload %6.2f MiB\n",
			v.name, hist.FinalAccuracy(3), float64(up)/(1<<20))
	}
	fmt.Println("\nexpected shape: f32 is free at half the bytes and q8 costs little accuracy for 8× fewer; q1 (64× fewer)")
	fmt.Println("converges far slower when a device is sampled too rarely for its error feedback to catch up;")
	fmt.Println("loss-biased sampling speeds early rounds on skewed data")
}
