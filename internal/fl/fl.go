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
// sample ratio SR, and the local learning-rate schedule. Every simulated round
// is synchronous; buffered rounds run on the wire, where
// transport.ServeFederation takes this configuration.
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

	// Tracer, when non-nil, records identified spans for the simulation
	// (session → round → client_round → local_steps/mmd_grad, plus
	// algorithm-added spans like compute_delta) as JSONL span lines — the
	// same span tree the transport deployment produces.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, receives one training-dynamics line per round
	// (loss, per-client losses/update norms, the pairwise MMD
	// matrix and row ages when the algorithm maintains a δ table, and the
	// accounted wire bytes) and one line per lifecycle event.
	Ledger *telemetry.RunLedger

	// Health, when non-nil, scores every aggregated client's contribution in
	// real time through the transport server's feed (engine.Close): one
	// observation per update the round aggregates, and Run closes each scoring
	// round (engine.EndRound) after the algorithm's Round returns.
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

	// roundCtx is the current round span's context; MapClients parents
	// client_round spans to it. Set by Run between rounds (never during a
	// pooled phase, so workers read it race-free).
	roundCtx telemetry.SpanContext
	// rec is the reused ledger record; its slices are refilled each round.
	rec telemetry.RoundRecord

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
// recomputation, …). Zero when tracing is off.
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
	return f.Cfg.Sampler.Sample(f, round)
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
}

// MapClients runs work for every sampled client on the worker pool and
// returns the outputs in sampled order (so aggregation is deterministic).
// work receives a worker whose network/optimizer it may freely reuse, and a
// per-(round, client) RNG.
func (f *Federation) MapClients(round int, sampled []int, work func(w *Worker, c *Client, rng *rand.Rand) ClientOut) []ClientOut {
	outs := make([]ClientOut, len(sampled))
	for _, w := range f.workers {
		w.loadedFlat = nil
	}
	f.fanOut(len(sampled), func(g, ti int) {
		w, c := f.workers[g], f.Clients[sampled[ti]]
		cr := f.Cfg.Tracer.Start("client_round", f.roundCtx)
		cr.Round, cr.Client = round, c.ID
		w.spanCtx = cr.Context()
		outs[ti] = work(w, c, f.roundRNG(round, c.ID))
		if len(f.Cfg.Byzantine) > 0 {
			f.tamper(w, &outs[ti])
		}
		cr.End()
	})
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
func (o ClientOut) update() engine.Update {
	return engine.Update{Client: o.Client.ID, Samples: float64(o.Client.Data.Len()), Loss: o.Loss, Params: o.Params}
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
			if err := engine.Validate(o.update(), f.numParams); err != nil {
				f.Cfg.Ledger.Emit("invalid_update", round, fmt.Sprintf("client %d: %v", o.Client.ID, err))
				continue
			}
		}
		kept = append(kept, o)
	}
	return kept
}

// fanOut runs fn(g, i) for every i in [0, n) on one goroutine per worker, g
// being the goroutine's index in f.workers; tasks are handed out in order to
// whichever goroutine is free. For the duration the tensor kernels' budget
// is divided among the goroutines, so W of them do not each fan every kernel
// out to GOMAXPROCS (quadratic oversubscription).
func (f *Federation) fanOut(n int, fn func(g, i int)) {
	if len(f.workers) > 1 {
		defer tensor.SetKernelParallelism(tensor.SetKernelParallelism(max(1, runtime.GOMAXPROCS(0)/len(f.workers))))
	}
	tasks := make(chan int)
	var wg sync.WaitGroup
	for g := range f.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				fn(g, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
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

// updates appends the parameter-reporting outputs of outs to dst as engine
// updates.
func updates(dst []engine.Update, outs []ClientOut) []engine.Update {
	for _, o := range outs {
		if o.Params != nil {
			dst = append(dst, o.update())
		}
	}
	return dst
}

// WeightedAverage aggregates client parameter vectors weighted by shard
// size — the server update w ← Σ p_k w_k, normalized over the sampled
// cohort for partial participation (engine.Aggregate).
func WeightedAverage(outs []ClientOut) []float64 {
	fresh := updates(nil, outs)
	var dst []float64
	if len(fresh) > 0 {
		dst = make([]float64, len(fresh[0].Params))
	}
	if _, ok := engine.Aggregate(dst, fresh, nil, 0); !ok {
		panic("fl: WeightedAverage with no reporting clients")
	}
	return dst
}

// aggregate is the round close (engine.Close) over the round's outputs: it
// feeds h against global, writes the mean model — outputs weighted by shard
// size — into dst, fills rec's client block and returns the round's mean
// training loss. ok is false, dst untouched and the loss NaN when nothing
// valid reported: the simulator's equivalent of a failed attempt. With h and
// rec nil it is the bare aggregate.
func (f *Federation) aggregate(h *health.Monitor, rec *telemetry.RoundRecord, round int, global, dst []float64, outs []ClientOut) (loss float64, ok bool) {
	fresh := updates(f.fresh[:0], outs)
	loss, ok = engine.Close(h, rec, f.detail(), round, global, dst, fresh, nil, 0)
	clear(fresh)
	f.fresh = fresh
	return loss, ok
}

// detail reports whether the ledger records per-client detail (engine.Detail).
func (f *Federation) detail() bool { return engine.Detail(len(f.Clients)) }

// roundRec is the ledger record the round in progress fills; nil without a
// ledger. Run resets it before each round.
func (f *Federation) roundRec() *telemetry.RoundRecord {
	if f.Cfg.Ledger == nil {
		return nil
	}
	return &f.rec
}

// Phase runs run as phase p of the round in progress, under the round's
// span, with its time in the round's ledger line (telemetry.Phases).
func (f *Federation) Phase(p telemetry.Phase, round int, run func(telemetry.SpanContext)) {
	ps := telemetry.Phases{Tracer: f.Cfg.Tracer, Rec: f.roundRec()}
	ps.Time(p, f.roundCtx, round, run)
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
	for _, w := range f.workers {
		w.t.Net.SetFlat(flat)
	}
	f.fanOut(len(f.Clients), func(g, k int) {
		ds := f.Clients[k].Data
		correct := 0
		evalBatches(f.workers[g], ds, func(logits *tensor.Tensor, y []int) {
			for i := 0; i < logits.Dim(0); i++ {
				if tensor.MaxIndex(logits.Row(i)) == y[i] {
					correct++
				}
			}
		})
		accs[k] = float64(correct) / float64(ds.Len())
	})
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

// Run executes rounds of alg over f, recording metrics per round. With a
// Tracer configured it emits the session → round span tree (client-side
// spans attach through Federation.roundCtx); with a Ledger it writes one
// training-dynamics line per round.
func Run(f *Federation, alg Algorithm, rounds int) *metrics.History {
	alg.Setup(f)
	h := &metrics.History{Algorithm: alg.Name()}
	sess := f.Cfg.Tracer.Start("session", telemetry.SpanContext{})
	defer sess.End()
	f.Cfg.Ledger.Emit("run_start", -1, alg.Name())
	ps := telemetry.Phases{Tracer: f.Cfg.Tracer, Rec: f.roundRec()}
	for c := 0; c < rounds; c++ {
		sampled := f.SampleClients(c)
		f.rec.Reset()
		var res RoundResult
		d := ps.Time(telemetry.PhaseRound, sess.Context(), c, func(ctx telemetry.SpanContext) {
			f.roundCtx = ctx
			res = alg.Round(c, sampled)
			engine.EndRound(f.Cfg.Health, f.roundRec(), f.detail(), res.TrainLoss)
		})
		f.recordLedger(alg, c, res)
		if obs, ok := f.Cfg.Sampler.(LossObserver); ok {
			for id, loss := range res.ClientLosses {
				obs.Observe(id, loss)
			}
		}
		stats := metrics.RoundStats{
			Round:     c,
			TrainLoss: res.TrainLoss,
			Seconds:   d.Seconds(),
			UpBytes:   res.UpBytes,
			DownBytes: res.DownBytes,
			TestAcc:   math.NaN(),
		}
		if f.Test != nil {
			stats.TestAcc = f.Evaluate(alg.GlobalParams(), f.Test)
		}
		h.Append(stats)
	}
	f.Cfg.Ledger.Emit("run_done", rounds-1, alg.Name())
	return h
}

// recordLedger completes and writes the run-ledger line of a round whose close
// (Base.Round), health verdict and phases filled the client, health and time
// blocks. The record is reused across rounds; simulated rounds never fail, so
// attempt is always 1 and ok true.
func (f *Federation) recordLedger(alg Algorithm, round int, res RoundResult) {
	rec := f.roundRec()
	if rec == nil {
		return
	}
	rec.Algo = alg.Name()
	rec.Round, rec.Attempt, rec.OK = round, 1, true
	rec.Loss = res.TrainLoss
	rec.UpBytes, rec.DownBytes, rec.Elided = res.UpBytes, res.DownBytes, res.Elided
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
