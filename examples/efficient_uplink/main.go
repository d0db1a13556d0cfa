// Efficient uplink: bandwidth-constrained devices upload their model
// updates under a lossy wire scheme (float32, 8-bit or 1-bit quantization,
// the last two with error feedback). Together these shrink upload volume by
// up to an order of magnitude at minor accuracy cost — the
// communication-efficiency direction from the paper's related work. Each
// variant is a real protocol session over in-process pipes, so the server
// negotiates the codec, the clients keep their own error-feedback residuals
// and the bytes are the server's metered frames.
//
//	go run ./examples/efficient_uplink
package main

import (
	"fmt"
	"log"

	rfedavg "repro"
	"repro/internal/compress"
	"repro/internal/transport"
)

func main() {
	train := rfedavg.SynthMNIST(3000, 1)
	test := rfedavg.SynthMNIST(800, 2)
	const rounds = 15
	fed := rfedavg.NewFederation(rfedavg.Config{
		Builder:     rfedavg.NewImageCNN(rfedavg.SynthMNISTSpec, 48),
		ModelSeed:   7,
		Seed:        11,
		LocalSteps:  5,
		BatchSize:   32,
		SampleRatio: 0.25,
		LR:          rfedavg.ConstLR(0.1),
	}, rfedavg.SplitBySimilarity(train, 20, 0, 13), test)

	variants := []struct {
		name   string
		scheme compress.Scheme
		ef     bool
	}{
		{"dense", compress.SchemeDense, false},
		{"f32", compress.SchemeF32, false},
		{"q8+EF", compress.SchemeInt8, true},
		{"q1+EF", compress.SchemeBit1, true},
	}

	fmt.Printf("20 devices, 25%% participation, totally non-IID MNIST, %d rounds of FedAvg on the wire:\n", rounds)
	for _, v := range variants {
		cfg := transport.ServerConfig{Algorithm: transport.AlgoFedAvg, Rounds: rounds, Codec: transport.CodecPolicy{Update: v.scheme}}
		res, err := transport.ServeFederation(fed, cfg, 0, v.ef, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s final acc %.4f  upload %6.2f MiB\n",
			v.name, fed.Evaluate(res.FinalParams, test), float64(res.UpBytes)/(1<<20))
	}
	fmt.Println("\nexpected shape: f32 is free at half the bytes and q8 costs little accuracy for 8× fewer; q1 (64× fewer)")
	fmt.Println("converges far slower when a device is sampled too rarely for its error feedback to catch up")
}
