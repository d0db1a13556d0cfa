// Package fl is the federated-learning substrate: clients, the server
// round loop, client sampling, weighted aggregation, parallel local
// training, evaluation, and communication accounting. Every method runs one
// round, Base.Round, and is the two halves it binds to it (Method). The
// baselines the paper compares against (FedAvg, FedProx, SCAFFOLD, q-FedAvg)
// and three more (FedAvgM, FedNova, MOON) live here; the paper's own
// algorithms (rFedAvg, rFedAvg+) build on this package from internal/core.
package fl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Config collects the federation-wide hyperparameters shared by all
// algorithms, matching the paper's notation: E local steps, batch size B,
// sample ratio SR, and the local learning-rate schedule.
type Config struct {
	Builder   nn.Builder
	ModelSeed int64 // seed for the initial global model w_0
	Seed      int64 // seed for sampling and batch order

	LocalSteps  int // E
	BatchSize   int // B
	SampleRatio float64
	LR          opt.Schedule
	// NewOptimizer builds the local solver (SGD for the image benchmarks,
	// RMSProp for Sent140). Nil means plain SGD.
	NewOptimizer func() opt.Optimizer

	// Workers bounds parallel local training; 0 means GOMAXPROCS.
	Workers int
	// Sampler selects each round's cohort; nil means UniformSampler (the
	// paper's setting).
	Sampler Sampler

	// Compress selects the wire codec applied to every simulated uplink
	// payload (client updates and δ maps): each vector is lossy-encoded
	// before the server sees it and the accounted UpBytes shrink to the
	// scheme's wire size, as under the transport layer's negotiated codec
	// (same encoder). The zero value (SchemeDense) disables it. The
	// quantizer RNG is keyed to (Seed, round, client), so compressed runs
	// stay deterministic under worker rescheduling.
	Compress compress.Scheme
	// CompressEF carries each client's quantization residual into its next
	// compressed update (EF-SGD); δ maps are never error-fed.
	CompressEF bool

	// BufferK > 0 enables buffered aggregation (FedBuff-style): each round
	// aggregates only the BufferK fastest sampled clients under a seeded
	// latency model, standing in for the arrivals the transport server
	// observes; the rest are parked and folded into a later round's aggregate
	// with the server's discount, engine.StalenessWeight(age, StalenessLambda).
	// Deterministic: latency draws are keyed to (Seed, round, client). 0 (or
	// a buffer of at least the cohort) closes every round over the full cohort.
	BufferK int
	// StalenessLambda is λ in the staleness discount applied to folded
	// updates; ≤ 0 disables discounting (late updates weigh like fresh).
	StalenessLambda float64
	// SlowFactor[k] scales client k's simulated latency (unset entries mean
	// 1), modeling persistent stragglers; consulted only when BufferK > 0.
	SlowFactor []float64

	// Tracer, when non-nil, records identified spans for the simulation
	// (session → round → client_round → local_steps/mmd_grad, plus
	// algorithm-added spans like compute_delta) to a JSONL trace file —
	// the same span tree the transport deployment produces.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, receives one training-dynamics line per round
	// (loss, per-client losses/update norms, async folds, the pairwise MMD
	// matrix and row ages when the algorithm maintains a δ table, and the
	// accounted wire bytes).
	Ledger *telemetry.RunLedger
	// LedgerDetailN caps per-client ledger detail: federations with more
	// clients record summary statistics and a sampled MMD sub-matrix
	// instead of O(N) arrays and the O(N²) MMD block. 0 means
	// telemetry.DefaultLedgerDetailN; negative means always full detail.
	LedgerDetailN int
	// Events, when non-nil, receives one JSONL line per lifecycle event.
	Events *telemetry.EventLog

	// Health, when non-nil, scores every aggregated client's contribution in
	// real time through the transport server's feed (engine.Close): one
	// observation per update the round aggregates, async folds credited with
	// their age, and Run closes each scoring round (engine.EndRound) after the
	// algorithm's Round returns.
	Health *health.Monitor
	// Byzantine marks simulated adversaries by client ID: after local
	// training each marked client's reported update is rewritten to
	// g + fac·(w − g), with fac = −1 for a sign flip, C for a scaled
	// update, or −C for both. The tampered update feeds aggregation (the
	// attack is real), while the reported loss and δ map stay honest —
	// exactly the threat the health monitor's direction and norm signals
	// must catch.
	Byzantine map[int]Byzantine
}

// Byzantine configures one simulated adversary.
type Byzantine struct {
	SignFlip bool
	// Scale multiplies the update by C when > 0.
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.NewOptimizer == nil {
		c.NewOptimizer = func() opt.Optimizer { return opt.NewSGD() }
	}
	if c.LR == nil {
		c.LR = opt.ConstLR(0.1)
	}
	if c.SampleRatio <= 0 || c.SampleRatio > 1 {
		c.SampleRatio = 1
	}
	if c.LocalSteps <= 0 {
		c.LocalSteps = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.Sampler == nil {
		c.Sampler = UniformSampler{}
	}
	return c
}

// Client is one federated participant: its private shard and aggregation
// weight p_k = n_k/n from Eq. (1).
type Client struct {
	ID     int
	Data   *data.Dataset
	Weight float64
}

// Federation owns the clients, the test set, and the worker pool that runs
// local training in parallel. One Federation can run several algorithms in
// sequence; each Algorithm keeps its own global state.
type Federation struct {
	Cfg     Config
	Clients []*Client
	Test    *data.Dataset

	workers   []*Worker
	numParams int

	// efResidual[k] is client k's error-feedback carry-over under a lossy
	// uplink codec. Entries are filled lazily but indexed by client ID, so
	// concurrent workers (one client per worker at a time) never race.
	efResidual [][]float64

	// roundCtx is the current round span's context; MapClients parents
	// client_round spans to it. Set by Run between rounds (never during a
	// pooled phase, so workers read it race-free).
	roundCtx telemetry.SpanContext
	// rec is the reused ledger record; its slices are refilled each round.
	rec telemetry.RoundRecord

	// deferred holds parked async outputs by client ID (Config.BufferK).
	deferred map[int]*deferredOut

	// everyone is the all-true eligibility mask UniformSampler draws from;
	// fresh is the engine's view of the outputs at hand, emptied after each
	// use so no round's parameters outlive it here.
	everyone []bool
	fresh    []engine.Update
}

type Worker struct {
	// t is the network, the local solver and the arena behind batches, loss
	// gradients and δ maps.
	t engine.Trainer
	// cbuf is CompressUplink's payload buffer, grown once to the model's
	// packed size so the steady-state round loop is alloc-free.
	cbuf []byte
	// spanCtx is the worker's current client_round span, the parent for
	// spans started inside the client's local work. Like net and arena it
	// is single-goroutine: only the worker's own task touches it.
	spanCtx telemetry.SpanContext
	// loadedFlat aliases the flat slice of the last LoadModel call — the
	// global this worker's current client trained from, which the
	// Byzantine rewrite mirrors around. Cleared at every MapClients entry so
	// a pass that skips LoadModel (the δ pass) cannot leak a stale reference.
	loadedFlat []float64
}

// SpanContext returns the worker's current client_round span context, the
// parent algorithm implementations should use for their own spans (δ
// recomputation, compression, …). Zero when tracing is off.
func (w *Worker) SpanContext() telemetry.SpanContext { return w.spanCtx }

// NewFederation builds a federation from per-client shards. Weights follow
// shard sizes.
func NewFederation(cfg Config, shards []*data.Dataset, test *data.Dataset) *Federation {
	cfg = cfg.withDefaults()
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	f := &Federation{Cfg: cfg, Test: test, everyone: make([]bool, len(shards))}
	for i, s := range shards {
		f.everyone[i] = true
		f.Clients = append(f.Clients, &Client{ID: i, Data: s, Weight: float64(s.Len()) / float64(total)})
	}
	if cfg.Workers > len(shards) {
		cfg.Workers = len(shards)
		f.Cfg.Workers = cfg.Workers
	}
	for i := 0; i < cfg.Workers; i++ {
		f.workers = append(f.workers, &Worker{t: engine.Trainer{
			Net:   cfg.Builder(cfg.ModelSeed),
			Opt:   cfg.NewOptimizer(),
			Arena: nn.NewArena(),
		}})
	}
	f.numParams = f.workers[0].t.Net.NumParams()
	f.efResidual = make([][]float64, len(shards))
	return f
}

// NumParams returns the number of scalar model parameters |w|.
func (f *Federation) NumParams() int { return f.numParams }

// FeatureDim returns d, the width of φ's output (the δ dimension).
func (f *Federation) FeatureDim() int { return f.workers[0].t.Net.FeatureDim }

// InitialParams returns a fresh copy of the initial global model w_0.
func (f *Federation) InitialParams() []float64 {
	return f.Cfg.Builder(f.Cfg.ModelSeed).GetFlat()
}

// SampleClients draws the round's cohort through the configured Sampler
// (uniform ⌈SR·N⌉ by default), deterministically from the federation seed
// and round number.
func (f *Federation) SampleClients(round int) []int {
	sampled := f.Cfg.Sampler.Sample(f, round)
	if f.Cfg.BufferK > 0 {
		sampled = f.filterAsyncBusy(sampled)
	}
	return sampled
}

// cohortSize returns ⌈SR·N⌉, clamped to [1, N].
func (f *Federation) cohortSize() int {
	k := int(math.Ceil(f.Cfg.SampleRatio * float64(len(f.Clients))))
	if k < 1 {
		k = 1
	}
	if k > len(f.Clients) {
		k = len(f.Clients)
	}
	return k
}

// roundRNG derives a deterministic RNG for a (round, client) pair so runs
// reproduce regardless of worker scheduling.
func (f *Federation) roundRNG(round, client int) *rand.Rand {
	seed := f.Cfg.Seed*1_000_003 + int64(round)*7919 + int64(client+1)*104729
	return rand.New(rand.NewSource(seed))
}

// ClientOut is what one client's local work hands back to the server.
type ClientOut struct {
	Client *Client
	Params []float64 // resulting local model, nil if not reported
	Loss   float64   // mean local training loss
	Aux    []float64 // algorithm-specific payload (δ map, control variate …)
	// ReconErr is the relative L2 error CompressUplink introduced into this
	// client's payloads; NaN (or zero value on untouched outputs) when the
	// uplink was dense.
	ReconErr float64
}

// MapClients runs work for every sampled client on the worker pool and
// returns the outputs in sampled order (so aggregation is deterministic).
// work receives a worker whose network/optimizer it may freely reuse, and a
// per-(round, client) RNG.
func (f *Federation) MapClients(round int, sampled []int, work func(w *Worker, c *Client, rng *rand.Rand) ClientOut) []ClientOut {
	outs := make([]ClientOut, len(sampled))
	tasks := make(chan int)
	var wg sync.WaitGroup
	restore := f.splitKernelBudget()
	for _, w := range f.workers {
		w.loadedFlat = nil
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			for ti := range tasks {
				c := f.Clients[sampled[ti]]
				cr := f.Cfg.Tracer.Start("client_round", f.roundCtx)
				cr.Round, cr.Client = round, c.ID
				w.spanCtx = cr.Context()
				outs[ti] = work(w, c, f.roundRNG(round, c.ID))
				if len(f.Cfg.Byzantine) > 0 {
					f.tamper(w, &outs[ti])
				}
				cr.End()
			}
		}(w)
	}
	for ti := range sampled {
		tasks <- ti
	}
	close(tasks)
	wg.Wait()
	restore()
	return f.admit(round, outs)
}

// tamper applies a client's configured Byzantine rewrite to its reported
// update, mirroring it around the global the worker trained from. Loss and
// Aux (the δ map) stay honest — the attack only touches the parameters.
func (f *Federation) tamper(w *Worker, out *ClientOut) {
	bz, ok := f.Cfg.Byzantine[out.Client.ID]
	if !ok || out.Params == nil || len(w.loadedFlat) != len(out.Params) {
		return
	}
	engine.Tamper(out.Params, w.loadedFlat, bz.SignFlip, bz.Scale)
}

// update is the engine's view of a parameter-reporting output: the client's
// shard size is its weight.
func (o ClientOut) update(age int) engine.Update {
	return engine.Update{Client: o.Client.ID, Samples: float64(o.Client.Data.Len()), Age: age, Loss: o.Loss, Params: o.Params}
}

// admit is the server's gate on a MapClients pass. Every reported update is
// validated as the transport server validates a frame; a failing one is left
// out of the outputs — so out of the aggregate, the health feed and the
// ledger's client block — with one invalid_update event, where the server
// evicts the sender. Passes without parameter outputs (the δ sync) go through
// untouched.
func (f *Federation) admit(round int, outs []ClientOut) []ClientOut {
	kept := outs[:0]
	for _, o := range outs {
		if o.Params != nil {
			if err := engine.Validate(o.update(0), f.numParams); err != nil {
				f.Cfg.Events.Emit("invalid_update", round, fmt.Sprintf("client %d: %v", o.Client.ID, err))
				continue
			}
		}
		kept = append(kept, o)
	}
	return kept
}

// splitKernelBudget divides the machine's parallelism budget among the
// worker pool for the duration of a pooled phase, so tensor kernels running
// inside W concurrent workers do not each fan out to GOMAXPROCS goroutines
// (quadratic oversubscription). The returned func restores the previous
// budget.
func (f *Federation) splitKernelBudget() func() {
	if len(f.workers) <= 1 {
		return func() {}
	}
	per := runtime.GOMAXPROCS(0) / len(f.workers)
	if per < 1 {
		per = 1
	}
	prev := tensor.SetKernelParallelism(per)
	return func() { tensor.SetKernelParallelism(prev) }
}

// LocalOpts parameterizes one client's local training.
type LocalOpts = engine.LocalSteps

// LocalTrain runs E mini-batch steps of the local solver on c's shard using
// w's network (which the caller must have loaded with the start parameters)
// and returns the mean training loss: engine.Trainer.Steps under this
// driver's local_steps span.
func (f *Federation) LocalTrain(w *Worker, c *Client, rng *rand.Rand, o LocalOpts) float64 {
	ls := f.Cfg.Tracer.Start("local_steps", w.spanCtx)
	ls.Round, ls.Client = o.Round, c.ID
	loss := w.t.Steps(c.Data, rng, o, ls)
	ls.End()
	return loss
}

// DefaultLocalOpts builds LocalOpts for a round from the federation config.
func (f *Federation) DefaultLocalOpts(round int) LocalOpts {
	e := f.Cfg.LocalSteps
	return LocalOpts{
		Round: round,
		E:     e,
		B:     f.Cfg.BatchSize,
		LR:    func(i int) float64 { return f.Cfg.LR.LR(round*e + i) },
	}
}

// LoadModel points w's network at the given flat parameters and resets the
// local optimizer state, the client-side half of "w_cE^k ← w_cE".
func (w *Worker) LoadModel(flat []float64) {
	w.t.Net.SetFlat(flat)
	w.t.Opt.Reset()
	w.loadedFlat = flat
}

// Net exposes the worker's network to algorithm implementations.
func (w *Worker) Net() *nn.Network { return w.t.Net }

// Arena exposes the worker's scratch arena to algorithm implementations.
// Like the network, it is single-goroutine: only the worker's own task may
// touch it.
func (w *Worker) Arena() *nn.Arena { return w.t.Arena }

// Worker returns worker i of the pool, for benchmarks and single-worker
// drivers that bypass MapClients.
func (f *Federation) Worker(i int) *Worker { return f.workers[i] }

// split appends an aggregation set's parameter-reporting outputs to fresh
// and late as engine updates; an entry is late when ages gives it a positive
// age (applyAsync folds only what an earlier round parked).
func split(fresh, late []engine.Update, agg []ClientOut, ages []int) (_, _ []engine.Update) {
	for i, o := range agg {
		switch {
		case o.Params == nil:
		case ages != nil && ages[i] > 0:
			late = append(late, o.update(ages[i]))
		default:
			fresh = append(fresh, o.update(0))
		}
	}
	return fresh, late
}

// WeightedAverage aggregates client parameter vectors weighted by shard
// size — the server update w ← Σ p_k w_k, normalized over the sampled
// cohort for partial participation (engine.Aggregate with nothing late).
func WeightedAverage(outs []ClientOut) []float64 {
	fresh, _ := split(nil, nil, outs, nil)
	var dst []float64
	if len(fresh) > 0 {
		dst = make([]float64, len(fresh[0].Params))
	}
	if _, ok := engine.Aggregate(dst, fresh, nil, 0); !ok {
		panic("fl: WeightedAverage with no reporting clients")
	}
	return dst
}

// aggregate is the round close (engine.Close) over an aggregation set from
// applyAsync: it feeds h against global, writes the mean model into dst — fresh
// outputs weighted by shard size, folded ones discounted by their staleness —
// fills rec's client block and returns the round's mean training loss. ok is
// false, dst untouched and the loss NaN when nothing valid reported: the
// simulator's equivalent of a failed attempt. With h and rec nil it is the
// bare aggregate.
func (f *Federation) aggregate(h *health.Monitor, rec *telemetry.RoundRecord, round int, global, dst []float64, agg []ClientOut, ages []int) (loss float64, ok bool) {
	fresh, late := split(f.fresh[:0], nil, agg, ages)
	loss, ok = engine.Close(h, rec, f.detail(), round, global, dst, fresh, late, f.Cfg.StalenessLambda)
	clear(fresh)
	f.fresh = fresh
	return loss, ok
}

// detail reports whether the ledger records per-client detail (engine.Detail).
func (f *Federation) detail() bool { return engine.Detail(f.Cfg.LedgerDetailN, len(f.Clients)) }

// roundRec is the ledger record the round in progress fills; nil without a
// ledger. Run resets it before each round.
func (f *Federation) roundRec() *telemetry.RoundRecord {
	if f.Cfg.Ledger == nil {
		return nil
	}
	return &f.rec
}

// evalBatch is the evaluation batch size, and the sample count of SCAFFOLD's
// and q-FedAvg's full-model draws.
const evalBatch = 256

// evalBatches runs the model over ds in batches of evalBatch, assembling each
// batch in w's arena, and calls fn with every batch's logits and labels.
func evalBatches(w *Worker, ds *data.Dataset, fn func(logits *tensor.Tensor, y []int)) {
	for lo := 0; lo < ds.Len(); lo += evalBatch {
		hi := lo + evalBatch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		idx := w.t.Arena.Ints("eval.idx", hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x := w.t.Arena.Tensor("eval.x", hi-lo, ds.Features())
		y := w.t.Arena.Ints("eval.y", hi-lo)
		ds.GatherInto(idx, x, y)
		fn(w.t.Net.Predict(x), y)
	}
}

// Evaluate computes the accuracy of the model given by flat parameters on
// ds, batching to bound memory.
func (f *Federation) Evaluate(flat []float64, ds *data.Dataset) float64 {
	w := f.workers[0]
	w.t.Net.SetFlat(flat)
	correct := 0
	evalBatches(w, ds, func(logits *tensor.Tensor, y []int) {
		for i := 0; i < logits.Dim(0); i++ {
			if tensor.MaxIndex(logits.Row(i)) == y[i] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// EvaluatePerClient returns the global model's accuracy on every client's
// local data — the per-client scatter of the fairness evaluation (Fig. 11).
func (f *Federation) EvaluatePerClient(flat []float64) []float64 {
	accs := make([]float64, len(f.Clients))
	var wg sync.WaitGroup
	tasks := make(chan int)
	restore := f.splitKernelBudget()
	for _, w := range f.workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			w.t.Net.SetFlat(flat)
			for k := range tasks {
				ds := f.Clients[k].Data
				correct := 0
				evalBatches(w, ds, func(logits *tensor.Tensor, y []int) {
					for i := 0; i < logits.Dim(0); i++ {
						if tensor.MaxIndex(logits.Row(i)) == y[i] {
							correct++
						}
					}
				})
				accs[k] = float64(correct) / float64(ds.Len())
			}
		}(w)
	}
	for k := range f.Clients {
		tasks <- k
	}
	close(tasks)
	wg.Wait()
	restore()
	return accs
}

// Algorithm is one federated optimization method. Setup is called once;
// Round advances one communication round over the sampled cohort.
type Algorithm interface {
	Name() string
	Setup(f *Federation)
	Round(round int, sampled []int) RoundResult
	// GlobalParams exposes the current global model for evaluation.
	GlobalParams() []float64
}

// RoundResult reports one round's aggregate training loss and measured
// communication volume.
type RoundResult struct {
	TrainLoss float64
	UpBytes   int64
	DownBytes int64
	// Elided counts sampled clients whose download omitted the model they
	// already held (rFedAvg+'s second synchronization delivered it).
	Elided int
	// ClientLosses holds each participating client's mean local training
	// loss, consumed by loss-adaptive samplers.
	ClientLosses map[int]float64
	// UpScheme names the uplink wire codec ("q8", "q1", …); empty means the
	// round's uplinks were dense.
	UpScheme string
	// ReconErr is the mean relative reconstruction error across this
	// round's lossy uplinks; meaningful only when UpScheme is set.
	ReconErr float64
}

// lossMap collects per-client losses from client outputs.
func lossMap(outs []ClientOut) map[int]float64 {
	m := make(map[int]float64, len(outs))
	for _, o := range outs {
		m[o.Client.ID] = o.Loss
	}
	return m
}

// MMDReporter is implemented by algorithms that maintain a server-side δ
// table (rFedAvg, rFedAvg+); the ledger records the pairwise MMD matrix the
// regularizer is shrinking from it.
type MMDReporter interface {
	MMDTable() engine.MMDTable
}

// PayloadBytes is the simulator's accounted size of one payload of n float64
// values: 8 bytes per value plus a nominal 24 bytes of framing. Table III and
// Fig. 10's simulated communication numbers are computed with it. It is not
// the transport frame: a dense frame is PayloadBytes(n) + 52 (a 72-byte
// header and a 4-byte length prefix), and an assign carrying the model and a
// δ target is one frame on the wire where this counts two payloads. The
// O(dN²) vs O(dN) comparison holds under either count; the byte totals differ.
func PayloadBytes(nFloats int) int64 { return int64(8*nFloats) + 24 }

// UplinkBytes is the accounted wire size of one n-float uplink payload
// under the configured codec — PayloadBytes when dense, the scheme's packed
// size plus framing otherwise.
func (f *Federation) UplinkBytes(n int) int64 {
	if s := f.Cfg.Compress; s != compress.SchemeDense {
		return int64(compress.EncodedBytes(s, n)) + 24
	}
	return PayloadBytes(n)
}

// CompressUplink simulates the lossy uplink wire: it encodes vec under the
// configured codec and writes back the reconstruction the server would
// decode, returning the relative L2 error (NaN under the dense codec, which
// leaves vec untouched). When ref is non-nil the payload is
// difference-coded against it — the transport client's Δ-against-broadcast
// framing — and, with CompressEF on, the client's residual folds in first.
// δ maps pass ref == nil (direct encode, no error feedback). Everything
// happens in vec: difference, quantization (compress.EncodeResidual, the one
// pass the transport client runs) and rebuild.
//
// class separates a round's payload streams (0 for model updates, 1 for δ
// maps), mirroring the transport layer's per-class RNG salts; the stream is
// keyed to (Seed, round, client), never to scheduling order.
func (f *Federation) CompressUplink(w *Worker, round int, c *Client, class int, ref, vec []float64) float64 {
	s := f.Cfg.Compress
	if s == compress.SchemeDense {
		return math.NaN()
	}
	var resid []float64
	if ref != nil {
		for i := range vec {
			vec[i] -= ref[i]
		}
		if f.Cfg.CompressEF {
			if resid = f.efResidual[c.ID]; len(resid) != len(vec) {
				resid = make([]float64, len(vec))
				f.efResidual[c.ID] = resid
			}
			for i := range vec {
				vec[i] += resid[i]
			}
		}
	}
	nb := compress.EncodedBytes(s, len(vec))
	if cap(w.cbuf) < nb {
		w.cbuf = make([]byte, nb)
	}
	rng := compress.RNGFor(s, f.Cfg.Seed, round, c.ID+class*len(f.Clients))
	rel := compress.EncodeResidual(s, w.cbuf[:nb], vec, rng, vec, resid)
	compress.ObserveReconError(s, rel)
	if ref != nil {
		for i := range vec {
			vec[i] = ref[i] + vec[i]
		}
	}
	return rel
}

// MeanReconErr averages the finite per-client reconstruction errors of a
// round; NaN when none were recorded.
func MeanReconErr(outs []ClientOut) float64 {
	sum, n := 0.0, 0
	for _, o := range outs {
		if !math.IsNaN(o.ReconErr) {
			sum += o.ReconErr
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Run executes rounds of alg over f, recording metrics per round. With a
// Tracer configured it emits the session → round span tree (client-side
// spans attach through Federation.roundCtx); with a Ledger it writes one
// training-dynamics line per round.
func Run(f *Federation, alg Algorithm, rounds int) *metrics.History {
	alg.Setup(f)
	h := &metrics.History{Algorithm: alg.Name()}
	sess := f.Cfg.Tracer.Start("session", telemetry.SpanContext{})
	defer sess.End()
	f.Cfg.Events.Emit("run_start", -1, alg.Name())
	for c := 0; c < rounds; c++ {
		sampled := f.SampleClients(c)
		tRound := f.Cfg.Tracer.Start("round", sess.Context())
		tRound.Round = c
		f.roundCtx = tRound.Context()
		start := time.Now()
		f.rec.Reset()
		res := alg.Round(c, sampled)
		engine.EndRound(f.Cfg.Health, f.roundRec(), f.detail(), res.TrainLoss)
		tRound.End()
		// Ledger timing comes from its own clock: an inert span (nil
		// tracer) has no meaningful start to measure from.
		f.recordLedger(alg, c, res, time.Since(start))
		if obs, ok := f.Cfg.Sampler.(LossObserver); ok {
			for id, loss := range res.ClientLosses {
				obs.Observe(id, loss)
			}
		}
		stats := metrics.RoundStats{
			Round:     c,
			TrainLoss: res.TrainLoss,
			Seconds:   time.Since(start).Seconds(),
			UpBytes:   res.UpBytes,
			DownBytes: res.DownBytes,
			UpScheme:  res.UpScheme,
			ReconErr:  res.ReconErr,
			TestAcc:   math.NaN(),
		}
		if f.Test != nil {
			stats.TestAcc = f.Evaluate(alg.GlobalParams(), f.Test)
		}
		h.Append(stats)
	}
	f.Cfg.Events.Emit("run_done", rounds-1, alg.Name())
	return h
}

// recordLedger completes and writes the run-ledger line of a round whose close
// (Base.Round) and health verdict filled the client and health blocks. The
// record is reused across rounds; simulated rounds never fail, so attempt is
// always 1 and ok true.
func (f *Federation) recordLedger(alg Algorithm, round int, res RoundResult, dur time.Duration) {
	rec := f.roundRec()
	if rec == nil {
		return
	}
	rec.Algo = alg.Name()
	rec.Round, rec.Attempt, rec.OK = round, 1, true
	rec.Loss = res.TrainLoss
	rec.DurNanos = int64(dur)
	rec.UpBytes, rec.DownBytes, rec.Elided = res.UpBytes, res.DownBytes, res.Elided
	if res.UpScheme != "" {
		rec.UpScheme = res.UpScheme
		rec.ReconErr = res.ReconErr
	}
	if mr, ok := alg.(MMDReporter); ok {
		t, detail, n := mr.MMDTable(), f.detail(), len(f.Clients)
		engine.LedgerMMD(rec, detail, t, n)
		engine.LedgerAges(rec, detail, t, n)
	}
	f.Cfg.Ledger.Record(rec)
}

// String renders a client for diagnostics.
func (c *Client) String() string {
	return fmt.Sprintf("client %d: %d samples, weight %.4f", c.ID, c.Data.Len(), c.Weight)
}
