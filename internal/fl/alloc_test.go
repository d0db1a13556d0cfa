package fl

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// These tests pin the PR's central claim: after warm-up, a local training
// step allocates nothing. Every buffer the step needs — batch gather, layer
// activations and gradients, the loss gradient — lives in the worker's arena
// or in layer-owned scratch, so steady-state cost is FLOPs only.

func allocTestDataset(rng *rand.Rand, n, features, classes int) *data.Dataset {
	x := tensor.RandNormal(rng, 1, n, features)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return &data.Dataset{X: x, Y: y, Classes: classes}
}

// singleWorkerFederation builds a one-client, one-worker federation with
// serial kernels — the same regime each pool worker sees inside a fully
// subscribed MapClients.
func singleWorkerFederation(builder nn.Builder, ds *data.Dataset, batch int) *Federation {
	cfg := Config{Builder: builder, ModelSeed: 1, Seed: 2, LocalSteps: 1, BatchSize: batch, Workers: 1}
	return NewFederation(cfg, []*data.Dataset{ds}, nil)
}

func testSteadyStateAllocs(t *testing.T, builder nn.Builder, ds *data.Dataset, batch int) {
	t.Helper()
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	f := singleWorkerFederation(builder, ds, batch)
	w, c := f.Worker(0), f.Clients[0]
	rng := rand.New(rand.NewSource(3))
	o := f.DefaultLocalOpts(0)
	for i := 0; i < 3; i++ { // size every arena and layer scratch buffer
		f.LocalTrain(w, c, rng, o)
	}
	allocs := testing.AllocsPerRun(20, func() {
		f.LocalTrain(w, c, rng, o)
	})
	if allocs != 0 {
		t.Errorf("steady-state train step: %.1f allocs/op, want 0", allocs)
	}
}

func TestLocalTrainSteadyStateAllocsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := allocTestDataset(rng, 512, 64, 10)
	testSteadyStateAllocs(t, nn.NewMLP(64, 64, 32, 10), ds, 32)
}

func TestLocalTrainSteadyStateAllocsConv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := allocTestDataset(rng, 128, 1*14*14, 10)
	testSteadyStateAllocs(t, nn.NewImageCNN(nn.ImageSpec{C: 1, H: 14, W: 14, Classes: 10}, 32), ds, 16)
}

// TestTelemetryCountersAdvanceWithoutAllocs pins the telemetry layer's side
// of the zero-alloc contract: the hot-path counters (local steps, samples,
// forward/backward passes, GEMM calls) must visibly advance during a train
// step while the step itself stays allocation-free — instrumentation is
// atomic updates, never formatting or boxing.
func TestTelemetryCountersAdvanceWithoutAllocs(t *testing.T) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(8))
	ds := allocTestDataset(rng, 256, 64, 10)
	f := singleWorkerFederation(nn.NewMLP(64, 64, 32, 10), ds, 32)
	w, c := f.Worker(0), f.Clients[0]
	trainRNG := rand.New(rand.NewSource(9))
	o := f.DefaultLocalOpts(0)
	for i := 0; i < 3; i++ {
		f.LocalTrain(w, c, trainRNG, o)
	}

	// The counters are the engine's; a registry hands back the series
	// registered under a name.
	reg := telemetry.Default()
	localSteps, trainSamples := reg.Counter("fl_local_steps_total", ""), reg.Counter("fl_train_samples_total", "")
	stepsBefore := localSteps.Value()
	samplesBefore := trainSamples.Value()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		f.LocalTrain(w, c, trainRNG, o)
	})
	if allocs != 0 {
		t.Errorf("instrumented train step: %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun executes the body runs+1 times (one warm-up call).
	wantSteps := int64((runs + 1) * o.E)
	if got := localSteps.Value() - stepsBefore; got != wantSteps {
		t.Errorf("fl_local_steps_total advanced by %d, want %d", got, wantSteps)
	}
	if got := trainSamples.Value() - samplesBefore; got != wantSteps*int64(o.B) {
		t.Errorf("fl_train_samples_total advanced by %d, want %d", got, wantSteps*int64(o.B))
	}
}

// TestLocalTrainAllocsAcrossBatchSizes re-runs the steady-state check after
// the batch size changes mid-stream: the arena and layer scratch must regrow
// once for the larger batch and then be allocation-free again, and shrinking
// back must reuse the large buffers outright.
func TestLocalTrainAllocsAcrossBatchSizes(t *testing.T) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	rng := rand.New(rand.NewSource(4))
	ds := allocTestDataset(rng, 256, 64, 10)
	f := singleWorkerFederation(nn.NewMLP(64, 64, 32, 10), ds, 32)
	w, c := f.Worker(0), f.Clients[0]
	trainRNG := rand.New(rand.NewSource(5))
	for _, b := range []int{16, 48, 8} {
		o := f.DefaultLocalOpts(0)
		o.B = b
		for i := 0; i < 3; i++ {
			f.LocalTrain(w, c, trainRNG, o)
		}
		if allocs := testing.AllocsPerRun(20, func() { f.LocalTrain(w, c, trainRNG, o) }); allocs != 0 {
			t.Errorf("batch %d: steady-state train step %.1f allocs/op, want 0", b, allocs)
		}
	}
}

// BenchmarkMapClientsOversubscription is the satellite benchmark for the
// kernel-budget fix: 8 pool workers training a model whose matmuls are large
// enough to trigger kernel parallelism. Without fanOut's budget split each of
// the 8 workers would fan every matmul out to GOMAXPROCS goroutines
// (quadratic oversubscription); with it the budget is divided so the pool as
// a whole stays at GOMAXPROCS.
func BenchmarkMapClientsOversubscription(b *testing.B) {
	const nWorkers = 8
	rng := rand.New(rand.NewSource(6))
	shards := make([]*data.Dataset, nWorkers)
	sampled := make([]int, nWorkers)
	for i := range shards {
		shards[i] = allocTestDataset(rng, 256, 256, 10)
		sampled[i] = i
	}
	// batch 64 × hidden 512 = 32k output elements, past parallelThreshold.
	cfg := Config{Builder: nn.NewMLP(256, 512, 256, 10), ModelSeed: 1, Seed: 2,
		LocalSteps: 2, BatchSize: 64, Workers: nWorkers}
	f := NewFederation(cfg, shards, nil)
	global := f.InitialParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MapClients(i, sampled, func(w *Worker, c *Client, rng *rand.Rand) ClientOut {
			w.LoadModel(global)
			loss := f.LocalTrain(w, c, rng, f.DefaultLocalOpts(i))
			return ClientOut{Client: c, Loss: loss}
		})
	}
}
