package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tsne"
)

func init() {
	Register("fig1", "Feature-space divergence of FedAvg under IID vs non-IID data (Fig. 1)", runFig1)
}

// runFig1 reproduces the observation behind Fig. 1. The paper t-SNEs the
// last-FC-layer features of 3 clients' data after FedAvg training, showing
// consistent feature distributions under IID partitioning and divergent
// ones under non-IID. We quantify the same thing with two numbers per
// partitioning:
//
//   - the mean pairwise MMD between the clients' feature maps (δ distance),
//     which the regularizer directly minimizes, and
//   - the t-SNE cluster separation of the same features grouped by client,
//     which is the visual spread of the paper's panels (higher = clients
//     occupy more distinct regions = worse for averaging).
//
// The non-IID row must dominate the IID row on both, and training with the
// distribution regularizer (rFedAvg+) must pull the non-IID numbers back
// down.
func runFig1(scale Scale, log io.Writer) (*Result, error) {
	t, err := NewTask("cifar", scale, 1)
	if err != nil {
		return nil, err
	}
	rounds := t.Rounds()
	res := &Result{
		ID: "fig1", Title: Title("fig1"),
		Header: []string{"partition", "algorithm", "mean pairwise MMD", "t-SNE client separation"},
	}

	type variant struct {
		label string
		sim   float64
		spec  AlgoSpec
	}
	variants := []variant{
		{"IID", 1.0, MethodsByName("FedAvg")[0]},
		{"non-IID", 0.0, MethodsByName("FedAvg")[0]},
		{"non-IID", 0.0, MethodsByName("rFedAvg+")[0]},
	}
	for _, v := range variants {
		if log != nil {
			fmt.Fprintf(log, "  fig1: %s %s…\n", v.label, v.spec.Name)
		}
		cfg := t.Config(Silo, 1, 0)
		f := fl.NewFederation(cfg, t.Shards(Silo, v.sim, 13), t.Test)
		alg := v.spec.Make(t)
		fl.Run(f, alg, rounds)

		mmd, sep := featureDivergence(t, f, alg.GlobalParams(), 3, 40)
		res.AddRow(v.label, v.spec.Name, fmt.Sprintf("%.4f", mmd), fmt.Sprintf("%.3f", sep))
	}
	res.Note("higher = clients' feature distributions diverge more (the paper's scattered non-IID panels)")
	res.Note("expected shape: non-IID FedAvg ≫ IID FedAvg, and rFedAvg+ < FedAvg on non-IID")
	return res, nil
}

// featureDivergence trains is done; this measures, for the first k clients,
// the mean pairwise MMD between their feature maps under the global model,
// and the t-SNE separation of per-client feature samples.
func featureDivergence(t *Task, f *fl.Federation, global []float64, k, perClient int) (meanMMD, separation float64) {
	net := t.Builder(f.Cfg.ModelSeed)
	net.SetFlat(global)

	deltas := make([][]float64, k)
	var rows [][]float64
	var owners []int
	rng := rand.New(rand.NewSource(99))
	arena := nn.NewArena()
	for c := 0; c < k; c++ {
		ds := f.Clients[c].Data
		deltas[c] = make([]float64, net.FeatureDim)
		core.ComputeDeltaInto(deltas[c], arena, net, ds, 0)
		idx := ds.RandomBatch(rng, perClient)
		x, _ := ds.Gather(idx)
		feat := net.Features(x)
		for r := 0; r < feat.Dim(0); r++ {
			rows = append(rows, append([]float64(nil), feat.Row(r)...))
			owners = append(owners, c)
		}
	}
	pairs := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			meanMMD += core.MMDSquaredMeans(deltas[i], deltas[j])
			pairs++
		}
	}
	meanMMD /= float64(pairs)

	flat := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(flat.Row(i), r)
	}
	cfg := tsne.DefaultConfig()
	cfg.Iterations = 250
	emb := tsne.Embed(flat, cfg)
	return meanMMD, tsne.ClusterSeparation(emb, owners)
}
