// Package rfedavg is a from-scratch Go implementation of
// "Distribution-Regularized Federated Learning on Non-IID Data"
// (Wang et al., ICDE 2023): federated learning with a maximum-mean-
// discrepancy (MMD) regularizer on the distance between clients' feature
// distributions, optimized communication-efficiently with delayed feature
// maps by the rFedAvg and rFedAvg+ algorithms.
//
// The package is a facade over the library's internals:
//
//   - datasets and non-IID partitioners (internal/data),
//   - the neural-network substrate (internal/nn, internal/opt),
//   - the federated runtime and the FedAvg / FedProx / SCAFFOLD / q-FedAvg
//     baselines (internal/fl),
//   - the paper's algorithms and the MMD machinery (internal/core),
//   - metrics, differential privacy for δ, and a TCP transport for real
//     multi-process deployments (internal/metrics, internal/privacy,
//     internal/transport).
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	train, test := rfedavg.SynthMNIST(3000, 1), rfedavg.SynthMNIST(800, 2)
//	shards := rfedavg.SplitBySimilarity(train, 10, 0 /* totally non-IID */, 13)
//	fed := rfedavg.NewFederation(rfedavg.Config{
//		Builder:    rfedavg.NewImageCNN(rfedavg.SynthMNISTSpec, 48),
//		LocalSteps: 5, BatchSize: 50,
//	}, shards, test)
//	hist := rfedavg.Run(fed, rfedavg.NewRFedAvgPlus(5e-3), 15)
//	fmt.Println(hist.Summary())
package rfedavg

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/privacy"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Dataset is a supervised dataset (design matrix, labels, optional
	// per-sample user ids).
	Dataset = data.Dataset
	// Partition assigns sample indices to clients.
	Partition = data.Partition
	// Config holds federation-wide hyperparameters (E, B, SR, learning
	// rate, model builder).
	Config = fl.Config
	// Federation owns clients, test data, and the training worker pool.
	Federation = fl.Federation
	// Algorithm is one federated optimization method.
	Algorithm = fl.Algorithm
	// History is the per-round trace of a run.
	History = metrics.History
	// Fairness summarizes per-client accuracy (Fig. 11).
	Fairness = metrics.Fairness
	// Network is a model split into feature extractor φ and head.
	Network = nn.Network
	// Builder constructs a fresh Network from a seed.
	Builder = nn.Builder
	// ImageSpec describes an image classification task.
	ImageSpec = nn.ImageSpec
	// TextSpec describes a token-sequence classification task.
	TextSpec = nn.TextSpec
	// Optimizer updates parameters from gradients.
	Optimizer = opt.Optimizer
	// Schedule maps step index to learning rate.
	Schedule = opt.Schedule
	// DeltaTable is the server-side table of client feature maps δ.
	DeltaTable = core.DeltaTable
	// GaussianMechanism perturbs δ for differential privacy (Fig. 12).
	GaussianMechanism = privacy.GaussianMechanism
)

// Dataset specs for the four built-in synthetic benchmarks.
var (
	SynthMNISTSpec   = data.SynthMNISTSpec
	SynthCIFARSpec   = data.SynthCIFARSpec
	SynthSent140Spec = data.SynthSent140Spec
	SynthFEMNISTSpec = data.SynthFEMNISTSpec
)

// SynthMNIST generates the MNIST stand-in (14×14 glyphs, 10 classes).
func SynthMNIST(n int, seed int64) *Dataset { return data.SynthMNIST(n, seed) }

// SynthCIFAR generates the CIFAR10 stand-in (12×12 RGB textures).
func SynthCIFAR(n int, seed int64) *Dataset { return data.SynthCIFAR(n, seed) }

// SynthSent140 generates the Sent140 stand-in (token sequences with
// per-user vocabulary skew).
func SynthSent140(users, perUser int, seed int64) *Dataset {
	return data.SynthSent140(users, perUser, seed)
}

// SynthFEMNIST generates the FEMNIST stand-in (62-class glyphs with
// per-writer styles and quantity skew).
func SynthFEMNIST(writers, meanPerWriter int, seed int64) *Dataset {
	return data.SynthFEMNIST(writers, meanPerWriter, seed)
}

// NewImageCNN builds the paper's CNN for an image task, with a feature
// layer of width featureDim feeding the MMD regularizer.
func NewImageCNN(spec ImageSpec, featureDim int) Builder {
	return nn.NewImageCNN(spec, featureDim)
}

// NewTextLSTM builds the paper's LSTM model for a text task.
func NewTextLSTM(spec TextSpec, embedDim, hidden, featureDim int) Builder {
	return nn.NewTextLSTM(spec, embedDim, hidden, featureDim)
}

// NewMLP builds a small MLP, handy for tests and toy runs.
func NewMLP(in, hidden, featureDim, classes int) Builder {
	return nn.NewMLP(in, hidden, featureDim, classes)
}

// SplitBySimilarity partitions ds across clients with the paper's
// label-skew split: a fraction s of samples IID, the rest sorted by label
// into contiguous shards. s=1 is IID, s=0 totally non-IID.
func SplitBySimilarity(ds *Dataset, clients int, s float64, seed int64) []*Dataset {
	rng := rand.New(rand.NewSource(seed))
	return materialize(ds, data.PartitionBySimilarity(ds.Y, clients, s, rng))
}

// SplitIID partitions ds across clients uniformly at random.
func SplitIID(ds *Dataset, clients int, seed int64) []*Dataset {
	rng := rand.New(rand.NewSource(seed))
	return materialize(ds, data.PartitionIID(ds.Len(), clients, rng))
}

// SplitByUser partitions a naturally federated dataset one-user-per-client.
func SplitByUser(ds *Dataset, clients int, seed int64) []*Dataset {
	rng := rand.New(rand.NewSource(seed))
	return materialize(ds, data.PartitionByUser(ds.Users, clients, rng))
}

// SplitDirichlet partitions ds with per-client Dirichlet(alpha) class
// mixtures (small alpha ⇒ heavy label skew).
func SplitDirichlet(ds *Dataset, clients int, alpha float64, seed int64) []*Dataset {
	rng := rand.New(rand.NewSource(seed))
	return materialize(ds, data.PartitionDirichlet(ds.Y, ds.Classes, clients, alpha, rng))
}

func materialize(ds *Dataset, parts Partition) []*Dataset {
	shards := make([]*Dataset, len(parts))
	for k, idx := range parts {
		shards[k] = ds.Subset(idx)
	}
	return shards
}

// NewFederation builds a federation over per-client shards.
func NewFederation(cfg Config, shards []*Dataset, test *Dataset) *Federation {
	return fl.NewFederation(cfg, shards, test)
}

// Run executes rounds of alg over the federation.
func Run(f *Federation, alg Algorithm, rounds int) *History { return fl.Run(f, alg, rounds) }

// NewRFedAvg creates the paper's Algorithm 1 with regularization weight λ.
func NewRFedAvg(lambda float64) *core.RFedAvg { return core.NewRFedAvg(lambda) }

// NewRFedAvgPlus creates the paper's Algorithm 2 (the flagship method).
func NewRFedAvgPlus(lambda float64) *core.RFedAvgPlus { return core.NewRFedAvgPlus(lambda) }

// NewFedAvg creates the FedAvg baseline.
func NewFedAvg() *fl.FedAvg { return fl.NewFedAvg() }

// NewFedProx creates the FedProx baseline with proximal weight mu.
func NewFedProx(mu float64) *fl.FedProx { return fl.NewFedProx(mu) }

// NewScaffold creates the SCAFFOLD baseline with server step size etaG.
func NewScaffold(etaG float64) *fl.Scaffold { return fl.NewScaffold(etaG) }

// NewQFedAvg creates the q-FedAvg baseline with fairness exponent q.
func NewQFedAvg(q float64) *fl.QFedAvg { return fl.NewQFedAvg(q) }

// NewFedAvgM creates FedAvg with server momentum β.
func NewFedAvgM(beta float64) *fl.FedAvgM { return fl.NewFedAvgM(beta) }

// NewMOON creates the MOON (model-contrastive) baseline with contrastive
// weight mu and temperature tau.
func NewMOON(mu, tau float64) *fl.MOON { return fl.NewMOON(mu, tau) }

// NewFedNova creates the FedNova baseline with size-proportional local
// steps and normalized aggregation.
func NewFedNova() *fl.FedNova { return fl.NewFedNova() }

// Sampler selects each round's participating cohort.
type Sampler = fl.Sampler

// Client-sampling policies: the paper's uniform scheme plus the adaptive
// policies from its future-work direction.
var (
	// Uniform draws ⌈SR·N⌉ clients uniformly (the paper's setting).
	Uniform Sampler = fl.UniformSampler{}
	// SizeWeighted draws clients with probability proportional to shard
	// size.
	SizeWeighted Sampler = fl.SizeWeightedSampler{}
)

// NewPowerOfChoiceSampler creates the loss-biased power-of-choice sampler
// with candidate factor d.
func NewPowerOfChoiceSampler(d float64) *fl.PowerOfChoiceSampler {
	return fl.NewPowerOfChoiceSampler(d)
}

// PersonalizeOptions configures per-client fine-tuning evaluation.
type PersonalizeOptions = fl.PersonalizeOptions

// NewGaussianMechanism builds the DP mechanism the privacy evaluation
// applies to δ (noise multiplier sigma, clipping constant clip, batch l).
func NewGaussianMechanism(sigma, clip float64, l int) *GaussianMechanism {
	return privacy.NewGaussianMechanism(sigma, clip, l)
}

// NewFairness summarizes per-client accuracies.
func NewFairness(accs []float64) Fairness { return metrics.NewFairness(accs) }

// ConstLR is a constant learning-rate schedule.
func ConstLR(lr float64) Schedule { return opt.ConstLR(lr) }

// MMDSquared returns ‖δa - δb‖², the squared empirical maximum mean
// discrepancy between two feature mean vectors (Eq. 2 with the explicit
// map already applied).
func MMDSquared(da, db []float64) float64 { return core.MMDSquaredMeans(da, db) }
