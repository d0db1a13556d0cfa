package main

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// A layer probe times one layer's public functions alone, on the shapes the
// workload gives them, after the passes. It measures what a call costs when
// nothing else contends, which is the most an optimisation of that call can
// save per call in situ.

// timeCall returns the median per-call duration of fn over batches filling
// budget. Batches are sized to about a millisecond so the clock's own cost
// vanishes.
func timeCall(budget time.Duration, fn func()) time.Duration {
	fn() // grow scratch, fault pages in
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	reps := 1
	if one < time.Millisecond {
		reps = int(time.Millisecond/(one+1)) + 1
	}
	var batches []float64
	deadline := time.Now().Add(budget)
	for len(batches) < 3 || time.Now().Before(deadline) {
		t := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t))/float64(reps))
	}
	return time.Duration(median(batches))
}

// probeResult holds the probed per-call costs, in the metrics' units.
type probeResult struct {
	gemmGflops         float64
	forwardUSPerSample float64
	flattenUS          float64
	gatherUS           float64
	localTrainMS       float64
	aggregateMS        float64
	computeDeltaMS     float64
	mmdGradUS          float64
	deltaTableUS       float64
	encodeMS, decodeMS float64
	reconErr           float64
	frameWriteMS       float64
	frameReadMS        float64
	ckptWriteMS        float64
	ckptReadMS         float64
	ckptBytes          float64
	ledgerRecordUS     float64
	healthObserveUS    float64
}

// probe runs every layer probe on w's shapes. final is the model a pass of
// this seed ended with; final − initial stands in for a client update.
func probe(w *workload, seed int64, final []float64, budget time.Duration) probeResult {
	var r probeResult
	s := deriveSeeds(seed)
	in := w.generate(s)
	rng := rand.New(rand.NewSource(s.run))
	cohort, E, B := w.cohort(), w.localSteps, w.batch

	shards := in.shards
	if len(shards) > 2 {
		shards = shards[:2]
	}
	fed := fl.NewFederation(fl.Config{
		Builder: in.builder, ModelSeed: s.model, Seed: s.run, Workers: 1,
		LocalSteps: E, BatchSize: B, LR: opt.ConstLR(learnRate),
	}, shards, in.test)
	if w.engine == engineSim {
		// The simulator splits the kernel thread budget among its workers
		// for the length of a round; probe under the same split.
		workers := min(runtime.GOMAXPROCS(0), w.clients)
		defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(max(runtime.GOMAXPROCS(0)/workers, 1)))
	}
	wk, client := fed.Worker(0), fed.Clients[0]
	net, arena, shard := wk.Net(), wk.Arena(), client.Data
	initial := fed.InitialParams()
	nParams, d := len(initial), fed.FeatureDim()

	// tensor
	m, k, n := w.gemm[0], w.gemm[1], w.gemm[2]
	a, b, out := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	fill(a.Data, rng)
	fill(b.Data, rng)
	t := timeCall(budget, func() { tensor.MatMulInto(out, a, b) })
	r.gemmGflops = 2 * float64(m) * float64(k) * float64(n) / float64(t)

	// data, nn
	perm := make([]int, shard.Len())
	x := tensor.New(min(B, shard.Len()), shard.Features())
	y := make([]int, x.Dim(0))
	r.gatherUS = us(timeCall(budget, func() {
		idx := shard.RandomBatchInto(rng, B, perm)
		shard.GatherInto(idx, x, y)
	}))
	r.forwardUSPerSample = us(timeCall(budget, func() { net.Forward(x, true) })) / float64(x.Dim(0))
	r.flattenUS = us(timeCall(budget, func() { net.SetFlat(net.GetFlat()) }))

	// core, fl: one client's share of a round
	target := make([]float64, d)
	feat := tensor.New(B, d)
	fill(feat.Data, rng)
	grad, mean := tensor.New(B, d), make([]float64, d)
	r.mmdGradUS = us(timeCall(budget, func() { core.RegFeatureGradInto(grad, mean, feat, target, lambda) }))
	o := fed.DefaultLocalOpts(0)
	o.FeatGrad = func(f *tensor.Tensor) *tensor.Tensor {
		return core.RegFeatureGradInto(arena.Tensor("reg.grad", f.Dim(0), f.Dim(1)), mean, f, target, lambda)
	}
	r.localTrainMS = ms(timeCall(budget, func() {
		wk.LoadModel(initial)
		fed.LocalTrain(wk, client, rng, o)
	}))
	delta := make([]float64, d)
	r.computeDeltaMS = ms(timeCall(budget, func() { core.ComputeDeltaInto(delta, arena, net, shard, 0) }))

	outs := make([]fl.ClientOut, cohort)
	for i := range outs {
		p := append([]float64(nil), initial...)
		p[i%nParams] += 1
		outs[i] = fl.ClientOut{Client: client, Params: p}
	}
	r.aggregateMS = ms(timeCall(budget, func() { fl.WeightedAverage(outs) }))

	table := core.NewDeltaTable(w.clients, d)
	if w.clients >= core.DefaultStreamN {
		table.SetStreaming(true)
	}
	fill(delta, rng)
	for i := 0; i < w.clients; i++ {
		table.Set(i, delta)
	}
	r.deltaTableUS = us(timeCall(budget, func() {
		for i := 0; i < cohort; i++ {
			table.MeanExcludingInto(target, i)
			table.Set(i, delta)
		}
		table.Tick()
	}))

	if w.engine == engineSim {
		return r
	}

	// compress, transport framing: the uplink update as the workload ships it
	update := make([]float64, nParams)
	for i := range update {
		update[i] = final[i] - initial[i]
	}
	msg := &transport.Message{Type: transport.MsgUpdate, NumSamples: int64(shard.Len()), Params: final}
	if scheme := w.codec.Update; scheme != compress.SchemeDense {
		packed := make([]byte, compress.EncodedBytes(scheme, nParams))
		recon := make([]float64, nParams)
		r.encodeMS = ms(timeCall(budget, func() { compress.EncodeInto(scheme, packed, update, rng) }))
		r.decodeMS = ms(timeCall(budget, func() {
			if err := compress.DecodeInto(recon, scheme, packed); err != nil {
				panic(err)
			}
		}))
		r.reconErr = compress.RelError(update, recon)
		msg.Params = nil
		msg.PParams = transport.PackedVec{Scheme: scheme, N: int32(nParams), Data: packed}
	}
	var frame bytes.Buffer
	r.frameWriteMS = ms(timeCall(budget, func() {
		frame.Reset()
		if err := transport.WriteMessage(&frame, msg); err != nil {
			panic(err)
		}
	}))
	wire := frame.Bytes()
	r.frameReadMS = ms(timeCall(budget, func() {
		if _, err := transport.ReadMessage(bytes.NewReader(wire)); err != nil {
			panic(err)
		}
	}))

	if !w.observers {
		return r
	}

	// Observers, at the cohort and slot count the server feeds them.
	ck := &transport.Checkpoint{
		Round: w.rounds, Global: final, RoundLosses: make([]float64, w.rounds),
		DeltaRows: make([][]float64, w.clients), DeltaAges: make([]int, w.clients),
		DeltaTicks: w.rounds, UpdateAges: make([]int, w.clients), UpdateTicks: w.rounds,
	}
	for i := range ck.DeltaRows {
		ck.DeltaRows[i] = delta
	}
	var file bytes.Buffer
	r.ckptWriteMS = ms(timeCall(budget, func() {
		file.Reset()
		if err := ck.Write(&file); err != nil {
			panic(err)
		}
	}))
	r.ckptBytes = float64(file.Len())
	image := file.Bytes()
	r.ckptReadMS = ms(timeCall(budget, func() {
		if _, err := transport.ReadCheckpoint(bytes.NewReader(image)); err != nil {
			panic(err)
		}
	}))

	ledger := telemetry.NewRunLedger(io.Discard)
	rec := &telemetry.RoundRecord{
		Algo: string(transport.AlgoRFedAvgPlus), Round: 1, Attempt: 1, OK: true, Loss: 1,
		Cohort: cohort, MMDDim: telemetry.LedgerMMDSampleK,
		MMD:       make([]float64, telemetry.LedgerMMDSampleK*telemetry.LedgerMMDSampleK),
		MMDSample: make([]int, telemetry.LedgerMMDSampleK), Verdict: "ok",
	}
	for i := 0; i < cohort; i++ {
		rec.LossStats.Add(float64(i))
		rec.NormStats.Add(float64(i))
		rec.HealthStats.Add(1)
	}
	r.ledgerRecordUS = us(timeCall(budget, func() { ledger.Record(rec) }))

	mon := health.New(health.Config{Registry: telemetry.NewRegistry()})
	round := 0
	r.healthObserveUS = us(timeCall(budget, func() {
		mon.BeginRound(round)
		for i := 0; i < cohort; i++ {
			mon.AccumDirection(outs[i].Params, initial)
		}
		for i := 0; i < cohort; i++ {
			mon.ObserveUpdate(i, 1, outs[i].Params, initial)
		}
		mon.EndRound(1)
		round++
	}))
	return r
}

func fill(vs []float64, rng *rand.Rand) {
	for i := range vs {
		vs[i] = rng.NormFloat64()
	}
}
