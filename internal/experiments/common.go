package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
)

// Setting is the federation topology of Sec. VI-A.
type Setting int

// Cross-silo (N=20, E=5, SR=1) and cross-device (N=500, E=10, SR=0.2).
const (
	Silo Setting = iota
	Device
)

// String names the setting.
func (s Setting) String() string {
	if s == Silo {
		return "cross-silo"
	}
	return "cross-device"
}

// Similarity values with special meaning for the naturally federated
// datasets (Sent140, FEMNIST): Natural selects the per-user partition,
// anything in [0,1] selects the label-skew partitioner.
const Natural = -1.0

// Task bundles one benchmark dataset with its model and the paper's
// algorithm-specific hyperparameters.
type Task struct {
	Dataset string // "mnist", "cifar", "sent140", "femnist"
	P       Preset

	Builder     nn.Builder
	Train, Test *data.Dataset

	Lambda float64 // rFedAvg(+) λ
	ProxMu float64 // FedProx μ
	QfQ    float64 // q-FedAvg q

	LR           float64 // local learning rate
	ProxLRDevice float64 // FedProx cross-device learning rate (paper: 0.01)
	NewOpt       func() opt.Optimizer
}

// NewTask generates the dataset and assembles the model/hyperparameters for
// one benchmark at the given scale. Seeds make generation deterministic.
func NewTask(dataset string, scale Scale, seed int64) (*Task, error) {
	p := For(scale)
	t := &Task{Dataset: dataset, P: p, LR: 0.1, ProxLRDevice: 0.01,
		NewOpt: func() opt.Optimizer { return opt.NewSGD() }}
	switch dataset {
	case "mnist":
		t.Train = data.SynthMNIST(p.TrainN, seed)
		t.Test = data.SynthMNIST(p.TestN, seed+1)
		t.Builder = nn.NewImageCNN(data.SynthMNISTSpec, p.FeatureDim)
		t.Lambda, t.ProxMu, t.QfQ = 5e-3, 1.0, 1.0
	case "cifar":
		t.Train = data.SynthCIFAR(p.TrainN, seed)
		t.Test = data.SynthCIFAR(p.TestN, seed+1)
		t.Builder = nn.NewImageCNN(data.SynthCIFARSpec, p.FeatureDim)
		// CIFAR needs a much smaller λ than MNIST, as in the paper
		// (1e-5 vs 1e-4 there); see fig9a for the sweep.
		t.Lambda, t.ProxMu, t.QfQ = 3e-4, 1.0, 1.0
	case "sent140":
		t.Train = data.SynthSent140(p.SentUsers, p.SentPerUser, seed)
		t.Test = data.SynthSent140(p.SentUsers/2+1, p.SentPerUser/2+1, seed+1)
		// The text model uses half the CNN's feature width, mirroring the
		// paper's 256-d LSTM features vs 512-d CNN features.
		t.Builder = nn.NewTextLSTM(data.SynthSent140Spec, 16, 32, textFeatureDim(p))
		t.Lambda, t.ProxMu, t.QfQ = 0.05, 0.01, 1e-4
		t.LR = 0.01
		t.ProxLRDevice = 0.01
		t.NewOpt = func() opt.Optimizer { return opt.NewRMSProp() }
	case "femnist":
		t.Train = data.SynthFEMNIST(p.FemWriters, p.FemPerWriter, seed)
		t.Test = data.SynthFEMNIST(p.FemWriters/2+1, p.FemPerWriter, seed+1)
		t.Builder = nn.NewImageCNN(data.SynthFEMNISTSpec, p.FeatureDim)
		t.Lambda, t.ProxMu, t.QfQ = 5e-3, 1.0, 1.0
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	return t, nil
}

// textFeatureDim returns the LSTM feature width: half the CNN's, min 8.
func textFeatureDim(p Preset) int {
	d := p.FeatureDim / 2
	if d < 8 {
		d = 8
	}
	return d
}

// Rounds returns the round budget for this task's dataset.
func (t *Task) Rounds() int { return t.P.Rounds[t.Dataset] }

// Shards partitions the training pool for a setting. similarity = Natural
// uses the per-user partition (only valid for sent140/femnist); similarity
// ∈ [0,1] uses the paper's label-skew split.
func (t *Task) Shards(setting Setting, similarity float64, seed int64) []*data.Dataset {
	clients := t.P.SiloClients
	if setting == Device {
		clients = t.P.DeviceClients
	}
	rng := rand.New(rand.NewSource(seed))
	var parts data.Partition
	if similarity == Natural {
		if t.Train.Users == nil {
			panic(fmt.Sprintf("experiments: %s has no natural users", t.Dataset))
		}
		parts = data.PartitionByUser(t.Train.Users, clients, rng)
	} else {
		parts = data.PartitionBySimilarity(t.Train.Y, clients, similarity, rng)
	}
	shards := make([]*data.Dataset, len(parts))
	for k, idx := range parts {
		shards[k] = t.Train.Subset(idx)
	}
	return shards
}

// Config assembles the fl.Config for a setting, with an optional learning
// rate override (FedProx's cross-device 0.01).
func (t *Task) Config(setting Setting, seed int64, lrOverride float64) fl.Config {
	lr := t.LR
	if lrOverride > 0 {
		lr = lrOverride
	}
	cfg := fl.Config{
		Builder:      t.Builder,
		ModelSeed:    seed * 31,
		Seed:         seed * 17,
		LR:           opt.ConstLR(lr),
		NewOptimizer: t.NewOpt,
	}
	if setting == Silo {
		cfg.LocalSteps, cfg.BatchSize, cfg.SampleRatio = t.P.SiloE, t.P.SiloB, 1.0
	} else {
		cfg.LocalSteps, cfg.BatchSize, cfg.SampleRatio = t.P.DeviceE, t.P.DeviceB, t.P.DeviceSR
	}
	return cfg
}

// AlgoSpec names an algorithm and how to instantiate it for a task.
type AlgoSpec struct {
	Name string
	Make func(t *Task) fl.Algorithm
	// DeviceLR overrides the cross-device learning rate when > 0.
	DeviceLR func(t *Task) float64
}

// Methods returns the six compared methods with the paper's
// algorithm-specific hyperparameters (Sec. VI-A).
func Methods() []AlgoSpec {
	return []AlgoSpec{
		{Name: "FedAvg", Make: func(t *Task) fl.Algorithm { return fl.NewFedAvg() }},
		{Name: "FedProx",
			Make:     func(t *Task) fl.Algorithm { return fl.NewFedProx(t.ProxMu) },
			DeviceLR: func(t *Task) float64 { return t.ProxLRDevice }},
		{Name: "Scaffold", Make: func(t *Task) fl.Algorithm { return fl.NewScaffold(1.0) }},
		{Name: "q-FedAvg", Make: func(t *Task) fl.Algorithm { return fl.NewQFedAvg(t.QfQ) }},
		{Name: "rFedAvg", Make: func(t *Task) fl.Algorithm { return core.NewRFedAvg(t.Lambda) }},
		{Name: "rFedAvg+", Make: func(t *Task) fl.Algorithm { return core.NewRFedAvgPlus(t.Lambda) }},
	}
}

// MethodsByName filters Methods to the given names, preserving order.
func MethodsByName(names ...string) []AlgoSpec {
	all := Methods()
	var out []AlgoSpec
	for _, n := range names {
		for _, m := range all {
			if m.Name == n {
				out = append(out, m)
			}
		}
	}
	return out
}

// RunOne executes one (task, setting, similarity, method, seed) cell and
// returns its history.
func RunOne(t *Task, setting Setting, similarity float64, spec AlgoSpec, seed int64, rounds int) *metrics.History {
	lrOverride := 0.0
	if setting == Device && spec.DeviceLR != nil {
		lrOverride = spec.DeviceLR(t)
	}
	cfg := t.Config(setting, seed, lrOverride)
	f := fl.NewFederation(cfg, t.Shards(setting, similarity, seed*13), t.Test)
	return fl.Run(f, spec.Make(t), rounds)
}

// CellAccuracy runs Reps repetitions of a cell and returns the mean ± std
// of the final accuracy, formatted as the paper's table cells (in %).
func CellAccuracy(t *Task, setting Setting, similarity float64, spec AlgoSpec, log io.Writer) (mean, std float64) {
	var accs []float64
	for rep := 0; rep < t.P.Reps; rep++ {
		h := RunOne(t, setting, similarity, spec, int64(rep+1), t.Rounds())
		acc := h.FinalAccuracy(3)
		accs = append(accs, acc*100)
		if log != nil {
			fmt.Fprintf(log, "  %s %s sim=%v %s rep %d: %.2f%%\n",
				t.Dataset, setting, similarity, spec.Name, rep, acc*100)
		}
	}
	return metrics.MeanStd(accs)
}

// FormatCell renders "mean ± std" like the paper's tables.
func FormatCell(mean, std float64) string { return fmt.Sprintf("%.2f ± %.2f", mean, std) }
