package fl

import (
	"math/rand"

	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Personalization: the paper's conclusion points at combining the
// regularized global model with personalized federated learning. This file
// implements the standard fine-tuning evaluation: each client splits its
// shard into a fine-tune part and a held-out part, adapts the global model
// locally for a few steps, and reports held-out accuracy — measuring how
// good a *starting point* each algorithm's global model is.

// PersonalizeOptions configures the per-client fine-tuning evaluation.
type PersonalizeOptions struct {
	// Steps of local fine-tuning SGD, in batches of the federation's batch
	// size; 0 evaluates the global model as-is.
	Steps int
	// LR for fine-tuning; 0 uses 0.01.
	LR float64
	// Seed controls the shard split and batch order.
	Seed int64
}

// holdoutFraction is the share of each shard Personalize reserves for
// evaluation.
const holdoutFraction = 0.25

// Personalize fine-tunes the global model independently on every client
// and returns each client's held-out accuracy. The global model is not
// modified.
func (f *Federation) Personalize(global []float64, o PersonalizeOptions) []float64 {
	if o.LR <= 0 {
		o.LR = 0.01
	}
	accs := make([]float64, len(f.Clients))
	trainers := make([]*engine.Trainer, len(f.workers))
	for g := range trainers {
		trainers[g] = &engine.Trainer{Net: f.Cfg.Builder(f.Cfg.ModelSeed), Opt: f.Cfg.NewOptimizer(), Arena: nn.NewArena()}
	}
	f.fanOut(len(f.Clients), func(g, k int) {
		accs[k] = personalizeOne(trainers[g], f.Clients[k], global, o, f.Cfg.BatchSize)
	})
	return accs
}

func personalizeOne(t *engine.Trainer, c *Client, global []float64, o PersonalizeOptions, batchSize int) float64 {
	rng := rand.New(rand.NewSource(o.Seed*1_000_003 + int64(c.ID+1)*7919))
	n := c.Data.Len()
	perm := rng.Perm(n)
	cut := int(float64(n) * (1 - holdoutFraction))
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	tuneIdx, holdIdx := perm[:cut], perm[cut:]

	t.Net.SetFlat(global)
	t.Opt.Reset()
	params := t.Net.Params()
	for s := 0; s < o.Steps; s++ {
		b := min(batchSize, len(tuneIdx))
		batch := make([]int, b)
		sub := rng.Perm(len(tuneIdx))[:b]
		for i, j := range sub {
			batch[i] = tuneIdx[j]
		}
		t.Batch(c.Data, batch)
		t.Opt.Step(params, o.LR)
	}

	x, y := c.Data.Gather(holdIdx)
	logits := t.Net.Predict(x)
	correct := 0
	for i := 0; i < logits.Dim(0); i++ {
		if tensor.MaxIndex(logits.Row(i)) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(holdIdx))
}
