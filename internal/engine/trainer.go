package engine

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Process-wide training-progress counters on the default registry: local
// SGD steps and the samples they consumed, across every client of either
// driver. Recorded once per Steps call (two atomic adds), nothing per step.
var (
	stepsTotal = telemetry.Default().Counter("fl_local_steps_total",
		"local mini-batch SGD steps executed across all clients")
	samplesTotal = telemetry.Default().Counter("fl_train_samples_total",
		"training samples consumed by local steps across all clients")
)

// BatchRows and BatchIdx are the arena keys of the one gather buffer and the
// one index slice an arena has. The train batch and the δ pass
// (core.ComputeDeltaInto) both use them — never at the same time, and each
// overwrites what it reads — so an arena holds one max(B, δ-batch)×features
// buffer, not two.
const (
	BatchRows = "batch.x"
	BatchIdx  = "batch.perm"
)

// LocalSteps parameterizes one client's local training.
type LocalSteps struct {
	Round int // tags the driver's spans; the schedule reads it through LR
	E, B  int
	// LR returns the learning rate for local step i of this round,
	// following the global step index t = round·E + i.
	LR func(i int) float64
	// FeatGrad, if non-nil, returns the extra gradient to inject at the
	// feature layer (the distribution regularizer's contribution). It
	// receives the batch's feature activations.
	FeatGrad func(feat *tensor.Tensor) *tensor.Tensor
	// FeatGradX is FeatGrad that additionally receives the input batch,
	// for methods whose feature gradient needs auxiliary forward passes
	// over the same batch (MOON's contrastive term). When both are set,
	// FeatGradX wins.
	FeatGradX func(x, feat *tensor.Tensor) *tensor.Tensor
	// PostGrad, if non-nil, runs after backprop and before the optimizer
	// step to modify parameter gradients (FedProx proximal term, SCAFFOLD
	// control variates).
	PostGrad func(params []*nn.Param)
}

// Trainer is a client's compute: a network, its local solver and the arena
// every batch-sized buffer comes from. The arena, and the network's gradient
// storage (nn.Network.AdoptGrads), need only be there while Steps, Batch or
// Loss runs: an fl.Worker keeps both, a transport client borrows them per
// call. With a warm arena nothing here allocates. Like its arena it belongs
// to one goroutine.
type Trainer struct {
	Net   *nn.Network
	Opt   opt.Optimizer
	Arena *nn.Arena
}

// Draw samples a mini-batch of min(b, Len) distinct rows of shard, consuming
// rng exactly as data.Dataset.RandomBatch does. The result lives in the arena
// until the next Draw or δ pass.
func (t *Trainer) Draw(shard *data.Dataset, rng *rand.Rand, b int) []int {
	return shard.RandomBatchInto(rng, b, t.Arena.Ints(BatchIdx, shard.Len()))
}

// gather copies rows idx of shard into the arena's batch buffer.
func (t *Trainer) gather(shard *data.Dataset, idx []int) (x *tensor.Tensor, y []int) {
	x = t.Arena.Tensor(BatchRows, len(idx), shard.Features())
	y = t.Arena.Ints("batch.y", len(idx))
	shard.GatherInto(idx, x, y)
	return x, y
}

// step is the one training-mode pass of the module: rows idx of shard go
// through the network, the softmax cross-entropy loss is backpropagated into
// freshly zeroed parameter gradients — plus o's feature gradient at φ's
// output, FeatGrad's traced as an mmd_grad child of ls — PostGrad runs, and
// the batch's mean loss is returned. The weights do not move.
func (t *Trainer) step(shard *data.Dataset, idx []int, o *LocalSteps, ls telemetry.ActiveSpan) float64 {
	x, y := t.gather(shard, idx)
	feat, logits := t.Net.Forward(x, true)
	dlogits := t.Arena.Tensor("batch.dlogits", logits.Dim(0), logits.Dim(1))
	loss := nn.SoftmaxCrossEntropyInto(dlogits, logits, y)
	var dfeat *tensor.Tensor
	switch {
	case o.FeatGradX != nil:
		dfeat = o.FeatGradX(x, feat)
	case o.FeatGrad != nil:
		mg := ls.Child("mmd_grad")
		dfeat = o.FeatGrad(feat)
		mg.End()
	}
	t.Net.ZeroGrad()
	t.Net.Backward(dlogits, dfeat)
	if o.PostGrad != nil {
		o.PostGrad(t.Net.Params())
	}
	return loss
}

// Batch leaves the plain loss gradient of rows idx of shard in the parameter
// gradients and returns the batch's mean loss: step without hooks.
func (t *Trainer) Batch(shard *data.Dataset, idx []int) float64 {
	return t.step(shard, idx, &LocalSteps{}, telemetry.ActiveSpan{})
}

// Loss is the mean loss of rows idx of shard under the current weights, in
// evaluation mode; no gradient is touched.
func (t *Trainer) Loss(shard *data.Dataset, idx []int) float64 {
	x, y := t.gather(shard, idx)
	logits := t.Net.Predict(x)
	return nn.SoftmaxCrossEntropyInto(t.Arena.Tensor("batch.dlogits", logits.Dim(0), logits.Dim(1)), logits, y)
}

// Steps runs E mini-batch steps of the local solver on shard from the
// network's current weights and returns the mean training loss: lines 6–9 of
// Algorithms 1–2 and the local loop of every baseline, on either driver. ls is
// the driver's local_steps span (the zero value traces nothing).
func (t *Trainer) Steps(shard *data.Dataset, rng *rand.Rand, o LocalSteps, ls telemetry.ActiveSpan) float64 {
	params := t.Net.Params()
	totalLoss, samples := 0.0, 0
	for i := 0; i < o.E; i++ {
		idx := t.Draw(shard, rng, o.B)
		samples += len(idx)
		totalLoss += t.step(shard, idx, &o, ls)
		t.Opt.Step(params, o.LR(i))
	}
	stepsTotal.Add(int64(o.E))
	samplesTotal.Add(int64(samples))
	return totalLoss / float64(o.E)
}

// Tamper rewrites a trained model w into the Byzantine update g + fac·(w − g)
// around g, the model it was trained from: fac is scale when that is positive
// and 1 otherwise, negated for a sign flip. A factor of 1 is the honest
// client and leaves w as it is.
func Tamper(w, g []float64, signFlip bool, scale float64) {
	fac := 1.0
	if scale > 0 {
		fac = scale
	}
	if signFlip {
		fac = -fac
	}
	if fac == 1 {
		return
	}
	for i, gi := range g {
		w[i] = gi + fac*(w[i]-gi)
	}
}
