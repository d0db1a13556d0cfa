package main

import (
	"math"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/transport"
)

// Hyperparameters shared by every workload: the paper's rFedAvg+ with plain
// SGD on a totally non-IID (similarity 0) label-skew split.
const (
	lambda     = 0.005
	learnRate  = 0.1
	similarity = 0.0
	featureDim = 48 // d, the width of the feature layer the regularizer reads
)

type engine int

const (
	engineSim  engine = iota // fl.Federation + core.RFedAvgPlus, no transport
	engineTCP                // transport.Serve + RunClient over loopback sockets
	enginePipe               // transport.Serve + RunClient over transport.Pipe
)

// workload is one set of inputs the benchmark runs. Round counts are fixed,
// never durations, so a pass's outputs depend on the seed alone; --seconds
// only sets how many passes a run repeats.
type workload struct {
	name string
	why  string

	engine      engine
	synth       func(n int, seed int64) *data.Dataset
	train, test int
	model       func(ds *data.Dataset) nn.Builder
	// gemm is the (m, k, n) of the model's most expensive matrix product at
	// batch size B, the shape tensor.gemm_gflops probes.
	gemm [3]int

	clients     int
	sampleRatio float64
	localSteps  int // E
	batch       int // B
	codec       transport.CodecPolicy
	errFeedback bool
	// observers turns on the health monitor, the run ledger, a checkpoint
	// every round and a private metrics registry.
	observers bool

	rounds, warmup int
	// accFloor is the correctness gate on final_acc: well under what every
	// seed reaches, well over the 0.1 of an untrained 10-class model.
	accFloor float64
}

func (w *workload) cohort() int {
	if w.sampleRatio <= 0 || w.sampleRatio >= 1 {
		return w.clients
	}
	return int(math.Ceil(w.sampleRatio * float64(w.clients)))
}

func (w *workload) timedRounds() int { return w.rounds - w.warmup }

func mlp(hidden int) func(ds *data.Dataset) nn.Builder {
	return func(ds *data.Dataset) nn.Builder { return nn.NewMLP(ds.Features(), hidden, featureDim, ds.Classes) }
}

var q8Policy = transport.CodecPolicy{
	Broadcast: compress.SchemeF32, Update: compress.SchemeInt8, Delta: compress.SchemeInt8,
}

// workloads are chosen so that each stresses layers the others leave idle;
// README.md gives the measured shares behind each "why".
var workloads = []*workload{
	{
		name: "silo-sim-cnn",
		why:  "cross-silo simulator, 8 clients x 5 CNN steps: compute-bound (nn/tensor/opt SGD + core delta pass), transport and codec idle",

		engine: engineSim, synth: data.SynthMNIST, train: 2000, test: 800,
		model: func(ds *data.Dataset) nn.Builder { return nn.NewImageCNN(data.SynthMNISTSpec, featureDim) },
		// conv2 as im2col: (B·7·7) × (8·3·3) × 16 at B = 32.
		gemm:    [3]int{32 * 49, 72, 16},
		clients: 8, localSteps: 5, batch: 32,
		rounds: 14, warmup: 2, accFloor: 0.5,
	},
	{
		name: "fleet-tcp-dense",
		why:  "4 loopback TCP clients, 1 MB dense frames: transport-bound (framing, two syncs, gather, aggregation, GC), compute is a minority",

		engine: engineTCP, synth: data.SynthMNIST, train: 400, test: 400,
		model: mlp(512), gemm: [3]int{8, 196, 512},
		clients: 4, localSteps: 1, batch: 8,
		rounds: 130, warmup: 10, accFloor: 0.3,
	},
	{
		name: "fleet-tcp-q8",
		why:  "same fleet with f32 broadcast, q8 uplink and error feedback: compress encode/decode in the path, 8x fewer uplink bytes, small frames",

		engine: engineTCP, synth: data.SynthMNIST, train: 400, test: 400,
		model: mlp(512), gemm: [3]int{8, 196, 512},
		clients: 4, localSteps: 1, batch: 8,
		codec: q8Policy, errFeedback: true,
		rounds: 130, warmup: 10, accFloor: 0.3,
	},
	{
		name: "device-pipe-1k",
		why:  "cross-device, 1024 pipe slots, cohort 64, health+ledger+checkpoint on: server round engine, skips, sharded aggregate, streaming delta table, observers",

		engine: enginePipe, synth: data.SynthMNIST, train: 16384, test: 400,
		model: mlp(32), gemm: [3]int{8, 196, 32},
		clients: 1024, sampleRatio: 0.0625, localSteps: 1, batch: 8,
		observers: true,
		rounds:    130, warmup: 10, accFloor: 0.3,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seeds derives every seed a pass uses from the benchmark's --seed, so the
// packages under test receive only generated inputs.
type seeds struct{ train, test, part, model, run int64 }

func deriveSeeds(seed int64) seeds {
	b := seed * 1000
	return seeds{train: b + 1, test: b + 2, part: b + 3, model: b + 4, run: b + 5}
}

// inputs is one pass's generated data: the label-skew shards and test set.
type inputs struct {
	shards  []*data.Dataset
	test    *data.Dataset
	builder nn.Builder
}

func (w *workload) generate(s seeds) inputs {
	train := w.synth(w.train, s.train)
	test := w.synth(w.test, s.test)
	parts := data.PartitionBySimilarity(train.Y, w.clients, similarity, rand.New(rand.NewSource(s.part)))
	shards := make([]*data.Dataset, len(parts))
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	return inputs{shards: shards, test: test, builder: w.model(train)}
}
