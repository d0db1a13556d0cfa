package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Extension experiments beyond the paper's evaluation: the additional
// baselines (MOON, FedNova), the wire-codec sweep, adaptive client sampling,
// personalization, and the full-kernel MMD diagnostic. These realize the
// directions the paper's related-work and future-work sections identify.

func init() {
	Register("extbaselines", "Extension: MOON and FedNova vs the paper's methods", runExtBaselines)
	Register("extsampler", "Extension: adaptive client sampling (size-weighted, power-of-choice)", runExtSampler)
	Register("extpersonal", "Extension: personalization — fine-tuning each algorithm's global model", runExtPersonal)
	Register("extkernel", "Extension: full RBF-kernel MMD between clients after training", runExtKernel)
	Register("extwire", "Extension: wire-codec bytes/accuracy sweep (dense, f32, q8, q1) under rFedAvg+", runExtWire)
}

func runExtBaselines(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("mnist", scale, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "extbaselines", Title: Title("extbaselines"),
		Header: []string{"method", "final acc", "best acc"}}
	specs := append(MethodsByName("FedAvg", "rFedAvg+"),
		AlgoSpec{Name: "MOON", Make: func(t *Task) fl.Algorithm { return fl.NewMOON(1.0, 0.5) }},
		AlgoSpec{Name: "FedNova", Make: func(t *Task) fl.Algorithm { return fl.NewFedNova() }},
	)
	for _, m := range specs {
		if log != nil {
			fmt.Fprintf(log, "  extbaselines %s…\n", m.Name)
		}
		h := RunOne(t, Silo, 0, m, 1, t.Rounds())
		res.AddRow(m.Name, fmt.Sprintf("%.4f", h.FinalAccuracy(3)), fmt.Sprintf("%.4f", h.BestAccuracy()))
	}
	res.Note("MNIST cross-silo, similarity 0%%; MOON μ=1, τ=0.5; FedNova with size-proportional local steps")
	return res, nil
}

// runExtWire sweeps the negotiated wire codec across every scheme over the
// real protocol — an in-process rFedAvg+ session per scheme
// (transport.ServeFederation), so both the model uplink and the δ maps of the
// second synchronization travel through the codec the server negotiates. The
// table is the bytes-vs-accuracy trade-off DESIGN.md's wire-compression
// section documents.
func runExtWire(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("mnist", scale, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "extwire", Title: Title("extwire"),
		Header: []string{"scheme", "final acc", "upload bytes", "vs dense", "recon err"}}
	schemes := []compress.Scheme{
		compress.SchemeDense, compress.SchemeF32, compress.SchemeInt8, compress.SchemeBit1,
	}
	f := fl.NewFederation(t.Config(Silo, 1, 0), t.Shards(Silo, 0, 13), t.Test)
	var denseUp int64
	for _, s := range schemes {
		if log != nil {
			fmt.Fprintf(log, "  extwire %s…\n", s)
		}
		// The codec observes every lossy encode into a process-wide
		// per-scheme histogram; this run's mean is the difference it leaves.
		n0, sum0 := compress.ReconErr(s)
		// q1 needs error feedback to stay convergent.
		cfg := transport.ServerConfig{Algorithm: transport.AlgoRFedAvgPlus, Rounds: t.Rounds(), Codec: transport.CodecPolicy{Update: s, Delta: s}}
		out, err := transport.ServeFederation(f, cfg, t.Lambda, s == compress.SchemeBit1, nil)
		if err != nil {
			return nil, fmt.Errorf("extwire %s: %w", s, err)
		}
		if s == compress.SchemeDense {
			denseUp = out.UpBytes
		}
		re := "-"
		if n, sum := compress.ReconErr(s); n > n0 {
			re = fmt.Sprintf("%.2e", (sum-sum0)/float64(n-n0))
		}
		res.AddRow(s.String(), fmt.Sprintf("%.4f", f.Evaluate(out.FinalParams, t.Test)),
			metrics.FormatBytes(out.UpBytes), fmt.Sprintf("%.1f%%", 100*float64(out.UpBytes)/float64(denseUp)), re)
	}
	res.Note("MNIST cross-silo non-IID, rFedAvg+ over in-process pipes; the codec covers the trained-model uplink and the δ maps both ways, the model broadcast stays dense")
	res.Note("upload bytes are the server's metered frames (headers included); final acc scores the final model; recon err is the run's mean over every lossy encode")
	res.Note("q1 runs with error feedback; accuracy should degrade gracefully while bytes shrink ~8x (q8) and ~60x (q1)")
	return res, nil
}

func runExtSampler(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("mnist", scale, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "extsampler", Title: Title("extsampler"),
		Header: []string{"sampler", "final acc", "rounds to 80%"}}
	for _, s := range []fl.Sampler{
		fl.UniformSampler{},
		fl.SizeWeightedSampler{},
		fl.NewPowerOfChoiceSampler(3),
	} {
		if log != nil {
			fmt.Fprintf(log, "  extsampler %s…\n", s.Name())
		}
		cfg := t.Config(Device, 1, 0)
		cfg.Sampler = s
		f := fl.NewFederation(cfg, t.Shards(Device, 0, 13), t.Test)
		h := fl.Run(f, fl.NewFedAvg(), t.Rounds())
		r := h.RoundsToAccuracy(0.8)
		rs := fmt.Sprint(r)
		if r < 0 {
			rs = ">" + fmt.Sprint(t.Rounds())
		}
		res.AddRow(s.Name(), fmt.Sprintf("%.4f", h.FinalAccuracy(3)), rs)
	}
	res.Note("MNIST cross-device non-IID with FedAvg under three cohort-selection policies")
	return res, nil
}

func runExtPersonal(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("mnist", scale, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "extpersonal", Title: Title("extpersonal"),
		Header: []string{"method", "global mean", "tuned mean", "tuned worst-10%"}}
	for _, m := range MethodsByName("FedAvg", "rFedAvg+") {
		if log != nil {
			fmt.Fprintf(log, "  extpersonal %s…\n", m.Name)
		}
		cfg := t.Config(Silo, 1, 0)
		f := fl.NewFederation(cfg, t.Shards(Silo, 0, 13), t.Test)
		alg := m.Make(t)
		fl.Run(f, alg, t.Rounds())
		base := f.Personalize(alg.GlobalParams(), fl.PersonalizeOptions{Steps: 0, Seed: 1})
		tuned := f.Personalize(alg.GlobalParams(), fl.PersonalizeOptions{Steps: 20, LR: 0.05, Seed: 1})
		fb, ft := metrics.NewFairness(base), metrics.NewFairness(tuned)
		res.AddRow(m.Name, fmt.Sprintf("%.4f", fb.Mean), fmt.Sprintf("%.4f", ft.Mean),
			fmt.Sprintf("%.4f", ft.WorstDecile))
	}
	res.Note("each client fine-tunes the global model for 20 steps on 75%% of its shard, evaluated on the held-out 25%%")
	res.Note("the paper's future-work direction: a better-regularized global model is a better personalization starting point")
	return res, nil
}

func runExtKernel(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("cifar", scale, 1)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "extkernel", Title: Title("extkernel"),
		Header: []string{"algorithm", "linear MMD² (paper's proxy)", "RBF-kernel MMD²"}}
	for _, m := range MethodsByName("FedAvg", "rFedAvg+") {
		if log != nil {
			fmt.Fprintf(log, "  extkernel %s…\n", m.Name)
		}
		cfg := t.Config(Silo, 1, 0)
		f := fl.NewFederation(cfg, t.Shards(Silo, 0, 13), t.Test)
		alg := m.Make(t)
		fl.Run(f, alg, t.Rounds())

		// Features of the first 3 clients under the final global model.
		net := t.Builder(cfg.ModelSeed)
		net.SetFlat(alg.GlobalParams())
		rng := rand.New(rand.NewSource(99))
		feats := make([]*tensor.Tensor, 3)
		for c := range feats {
			ds := f.Clients[c].Data
			x, _ := ds.Gather(ds.RandomBatch(rng, 60))
			// Clone: Features returns layer-owned scratch that the next
			// iteration's forward pass overwrites.
			feats[c] = net.Features(x).Clone()
		}
		linear, rbf, pairs := 0.0, 0.0, 0
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				linear += core.KernelMMDSquared(core.LinearKernel{}, feats[i], feats[j])
				gamma := core.MedianHeuristicGamma(feats[i], feats[j])
				rbf += core.KernelMMDSquared(core.RBFKernel{Gamma: gamma}, feats[i], feats[j])
				pairs++
			}
		}
		res.AddRow(m.Name, fmt.Sprintf("%.4f", linear/float64(pairs)), fmt.Sprintf("%.4f", rbf/float64(pairs)))
	}
	res.Note("CIFAR cross-silo non-IID; the regularizer optimizes the linear proxy — this checks it also shrinks the full-kernel discrepancy")
	return res, nil
}
