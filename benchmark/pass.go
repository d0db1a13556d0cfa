package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/health"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/traceview"
	"repro/internal/transport"
)

// passOpts selects the variant of a pass. The zero value is the measured
// configuration: rFedAvg+, untraced, observers as the workload says.
type passOpts struct {
	traced      bool // wrap conns, optimizers and the sampler in span recorders
	fedavg      bool // plain FedAvg baseline (rfedavg.reg_overhead_ratio)
	noObservers bool // observers forced off (telemetry.observer_share)
}

// passResult is everything one fresh session of a workload yields.
type passResult struct {
	setupS      float64
	synthS      float64
	joinS       float64
	roundMS     []float64 // latency of each timed round
	roundCPUMS  []float64 // process user+sys CPU of each timed round
	wallS       float64   // first timed round's start → last one's close
	cpuMS       float64   // process user+sys over the timed rounds
	mallocs     float64
	allocBytes  float64
	gcCycles    float64
	gcPauseMS   float64
	heapSysMiB  float64
	liveHeapMiB float64
	upBytes     int64 // timed rounds only
	downBytes   int64
	msgs        int64
	skips       int64
	ledgerBytes int64

	losses    []float64
	paramHash uint64
	finalAcc  float64
	evalMS    float64
	final     []float64 // final global model

	attempted, failed  int
	retries, evictions int
	problems           []string // failed correctness checks

	// Traced passes only: the spans as the tracer wrote them, and parsed.
	traceJSONL []byte
	spans      []traceview.Span
}

func (p *passResult) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// runPass runs one fresh session of w and checks its outputs.
func runPass(w *workload, seed int64, o passOpts) *passResult {
	// A pass must not pay for the previous one's garbage.
	runtime.GC()
	p := &passResult{attempted: w.cohort() * w.rounds}
	rec := newRecorder(w, o.traced)
	if w.engine == engineSim {
		runSim(w, deriveSeeds(seed), o, rec, p)
	} else {
		runSession(w, deriveSeeds(seed), o, rec, p)
	}
	rec.fill(p)

	if len(p.losses) != w.rounds {
		p.fail("%d round losses, want %d", len(p.losses), w.rounds)
	}
	if len(p.roundMS) != w.timedRounds() {
		p.fail("%d timed rounds observed, want %d", len(p.roundMS), w.timedRounds())
	}
	if !o.fedavg && p.finalAcc < w.accFloor {
		p.fail("final_acc %.4f under floor %.2f", p.finalAcc, w.accFloor)
	}
	p.failed += p.retries*w.cohort() + p.evictions
	if len(p.problems) > 0 || p.failed > p.attempted {
		p.failed = p.attempted
	}
	return p
}

func runSim(w *workload, s seeds, o passOpts, rec *recorder, p *passResult) {
	in := w.generate(s)
	p.synthS = time.Since(rec.passStart).Seconds()
	cfg := fl.Config{
		Builder: in.builder, ModelSeed: s.model, Seed: s.run,
		LocalSteps: w.localSteps, BatchSize: w.batch, SampleRatio: w.sampleRatio,
		LR: opt.ConstLR(learnRate),
	}
	if o.traced {
		cfg.Sampler = tracedSampler{fl.UniformSampler{}, rec}
		cfg.NewOptimizer = func() opt.Optimizer {
			return &tracedOpt{Optimizer: opt.NewSGD(), rec: rec, steps: w.localSteps}
		}
	}
	fed := fl.NewFederation(cfg, in.shards, in.test)
	var alg fl.Algorithm = core.NewRFedAvgPlus(lambda)
	if o.fedavg {
		alg = fl.NewFedAvg()
	}
	alg.Setup(fed)
	for r := 0; r < w.rounds; r++ {
		rec.beginRound(r)
		res := alg.Round(r, fed.SampleClients(r))
		p.losses = append(p.losses, res.TrainLoss)
		if r >= w.warmup {
			p.upBytes += res.UpBytes
			p.downBytes += res.DownBytes
		}
	}
	rec.finish()
	evaluate(fed, alg.GlobalParams(), in.test, rec, p)
}

// evaluate scores the final model after timing has stopped.
func evaluate(fed *fl.Federation, final []float64, test *data.Dataset, rec *recorder, p *passResult) {
	sp := rec.tracer.Start("eval", rec.session.Context())
	t0 := time.Now() // an untraced pass's span is inert and times nothing
	p.finalAcc = fed.Evaluate(final, test)
	p.evalMS = ms(time.Since(t0))
	sp.End()
	p.final = final
	p.paramHash = hashFloats(final)
}

func runSession(w *workload, s seeds, o passOpts, rec *recorder, p *passResult) {
	in := w.generate(s)
	p.synthS = time.Since(rec.passStart).Seconds()

	serverConns, clientConns, closeAll, err := connect(w)
	if err != nil {
		p.fail("connect: %v", err)
		return
	}
	defer closeAll()

	initial := in.builder(s.model)
	scfg := transport.ServerConfig{
		Algorithm: transport.AlgoRFedAvgPlus, Rounds: w.rounds,
		InitialParams: initial.GetFlat(), FeatureDim: initial.FeatureDim,
		SampleRatio: w.sampleRatio, Seed: s.run, Codec: w.codec,
		RoundDeadline: 30 * time.Second,
	}
	if o.fedavg {
		scfg.Algorithm = transport.AlgoFedAvg
	}
	var ledger *countingFile
	if w.observers && !o.noObservers {
		dir, err := os.MkdirTemp("", "flbench-e2e-")
		if err != nil {
			p.fail("temp dir: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		f, err := os.Create(filepath.Join(dir, "ledger.jsonl"))
		if err != nil {
			p.fail("ledger: %v", err)
			return
		}
		defer f.Close()
		ledger = &countingFile{f: f, rec: rec}
		reg := telemetry.NewRegistry()
		scfg.Metrics = reg
		scfg.Health = health.New(health.Config{Registry: reg})
		scfg.Ledger = telemetry.NewRunLedger(ledger)
		scfg.CheckpointPath = filepath.Join(dir, "session.ckpt")
	}

	links := make([]link, w.clients)
	sconns := make([]transport.Conn, w.clients)
	for i, c := range serverConns {
		sconns[i] = &serverConn{Conn: c, rec: rec, link: &links[i], slot: i}
	}
	clientErrs := make([]error, w.clients)
	var wg sync.WaitGroup
	for i := range clientConns {
		ccfg := transport.ClientConfig{
			Builder: in.builder, ModelSeed: s.model, Seed: s.run*4096 + int64(i), ClientID: i,
			LocalSteps: w.localSteps, BatchSize: w.batch, LR: opt.ConstLR(learnRate),
			Lambda: lambda, ErrorFeedback: w.errFeedback,
		}
		conn := clientConns[i]
		if o.traced {
			cc := &clientConn{Conn: conn, rec: rec, link: &links[i], slot: i}
			conn = cc
			ccfg.NewOptimizer = func() opt.Optimizer {
				return &tracedOpt{Optimizer: opt.NewSGD(), rec: rec, client: cc}
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := rec.tracer.Start("run_client", rec.session.Context())
			sp.Client = i
			_, clientErrs[i] = transport.RunClient(conn, in.shards[i], ccfg)
			sp.End()
		}(i)
	}
	sp := rec.tracer.Start("serve", rec.session.Context())
	res, err := transport.Serve(scfg, sconns)
	sp.End()
	if err != nil {
		// A failed session leaves clients blocked in Recv; closing the conns
		// releases them before the wait.
		closeAll()
	}
	wg.Wait()
	if err != nil {
		p.fail("serve: %v", err)
		return
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			p.failed += w.rounds
			p.fail("client %d: %v", i, cerr)
		}
	}
	p.losses = res.RoundLosses
	p.retries, p.evictions = res.RetriedRounds, len(res.Evictions)
	if ledger != nil {
		p.ledgerBytes = ledger.timed
	}

	// Byte accounting must agree end to end: what the server's conns sent
	// the clients' conns received, and the reverse.
	var sSent, sRecv, cSent, cRecv int64
	for i := range serverConns {
		sSent += serverConns[i].BytesSent()
		sRecv += serverConns[i].BytesReceived()
		cSent += clientConns[i].BytesSent()
		cRecv += clientConns[i].BytesReceived()
	}
	if sSent != cRecv || sRecv != cSent {
		p.fail("conn byte totals disagree: server sent %d / clients received %d, clients sent %d / server received %d",
			sSent, cRecv, cSent, sRecv)
	}

	evalFed := fl.NewFederation(fl.Config{Builder: in.builder, ModelSeed: s.model}, in.shards[:1], in.test)
	evaluate(evalFed, res.FinalParams, in.test, rec, p)
}

// connect opens the workload's fleet: paired (server side, client side)
// conns in slot order, and a func that closes them all (safe to call twice).
func connect(w *workload) (server, client []transport.Conn, closeAll func(), err error) {
	var l *transport.Listener
	closeAll = func() {
		for _, c := range server {
			c.Close()
		}
		for _, c := range client {
			c.Close()
		}
		if l != nil {
			l.Close()
		}
	}
	if w.engine == enginePipe {
		for i := 0; i < w.clients; i++ {
			s, c := transport.Pipe()
			server, client = append(server, s), append(client, c)
		}
		return server, client, closeAll, nil
	}
	if l, err = transport.Listen("127.0.0.1:0"); err != nil {
		return nil, nil, closeAll, err
	}
	// Dial then accept one at a time, so accepted conn i is client i's.
	for i := 0; i < w.clients; i++ {
		c, err := transport.Dial(l.Addr())
		if err != nil {
			closeAll()
			return nil, nil, closeAll, err
		}
		client = append(client, c)
		s, err := l.Accept()
		if err != nil {
			closeAll()
			return nil, nil, closeAll, err
		}
		server = append(server, s)
	}
	return server, client, closeAll, nil
}

// recorder observes one pass from outside the packages under test: round
// boundaries, the process counters at the edges of the timed window, wire
// counts, and — on a traced pass — spans.
type recorder struct {
	warmup int
	tracer *telemetry.Tracer // nil on untraced passes: every span is inert
	buf    bytes.Buffer      // the tracer's sink, owned by the benchmark

	passStart time.Time
	session   telemetry.ActiveSpan
	setup     telemetry.ActiveSpan // pass start → first round

	mu        sync.Mutex
	roundAt   []time.Time     // start of each round, then the close of the last
	cpuAt     []time.Duration // process CPU time at the same instants
	roundSpan telemetry.ActiveSpan
	start     usage
	end       usage
	liveHeap  float64
	firstJoin time.Time
	done      bool

	// Wire counts of the timed rounds, by message.
	up, down, msgs, skips atomic.Int64
}

func newRecorder(w *workload, traced bool) *recorder {
	r := &recorder{warmup: w.warmup}
	if traced {
		r.tracer = telemetry.NewTracer(&r.buf)
	}
	r.passStart = time.Now()
	r.session = r.tracer.Start("session", telemetry.SpanContext{})
	r.setup = r.tracer.Start("setup", r.session.Context())
	return r
}

// round is the index of the round in progress, -1 before the first.
func (r *recorder) round() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.roundAt) - 1
}

// roundCtx is the current round span's context, the parent of every span
// recorded inside the round.
func (r *recorder) roundCtx() telemetry.SpanContext {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roundSpan.Context()
}

// beginRound marks the start of round n; repeated calls for a round already
// begun (later assigns of the same broadcast) are ignored.
func (r *recorder) beginRound(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < len(r.roundAt) {
		return
	}
	if len(r.roundAt) == 0 {
		r.setup.End()
	} else {
		r.roundSpan.End()
	}
	r.roundAt = append(r.roundAt, time.Now())
	r.cpuAt = append(r.cpuAt, cpuTime())
	r.roundSpan = r.tracer.Start("round", r.session.Context())
	r.roundSpan.Round = n
	if n == r.warmup {
		r.start = readUsage()
	}
}

// finish closes the last round: the end of the timed window.
func (r *recorder) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.roundAt = append(r.roundAt, time.Now())
	r.cpuAt = append(r.cpuAt, cpuTime())
	r.roundSpan.End()
	r.end = readUsage()
	// The session or federation is still reachable here, so this is the
	// state the system retains, free of GC pacing.
	r.liveHeap = liveHeapMiB()
}

func (r *recorder) sawJoin() {
	r.mu.Lock()
	if r.firstJoin.IsZero() {
		r.firstJoin = time.Now()
	}
	r.mu.Unlock()
}

// timed reports whether a round-stamped message belongs to the timed rounds.
func (r *recorder) timed(round int32) bool { return int(round) >= r.warmup }

// fill derives the pass's window metrics once the session has ended.
func (r *recorder) fill(p *passResult) {
	r.session.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.roundAt) == 0 || !r.done {
		p.fail("pass ended before its last round closed")
		return
	}
	p.setupS = r.roundAt[0].Sub(r.passStart).Seconds()
	if !r.firstJoin.IsZero() {
		p.joinS = r.roundAt[0].Sub(r.firstJoin).Seconds()
	}
	for i := r.warmup; i+1 < len(r.roundAt); i++ {
		p.roundMS = append(p.roundMS, ms(r.roundAt[i+1].Sub(r.roundAt[i])))
		p.roundCPUMS = append(p.roundCPUMS, ms(r.cpuAt[i+1]-r.cpuAt[i]))
	}
	p.wallS = r.end.at.Sub(r.start.at).Seconds()
	p.cpuMS = ms(r.end.cpu - r.start.cpu)
	p.mallocs = float64(r.end.mem.Mallocs - r.start.mem.Mallocs)
	p.allocBytes = float64(r.end.mem.TotalAlloc - r.start.mem.TotalAlloc)
	p.gcCycles = float64(r.end.mem.NumGC - r.start.mem.NumGC)
	p.gcPauseMS = float64(r.end.mem.PauseTotalNs-r.start.mem.PauseTotalNs) / 1e6
	p.heapSysMiB = float64(r.end.mem.HeapSys) / (1 << 20)
	p.liveHeapMiB = r.liveHeap
	if up := r.up.Load(); up > 0 {
		p.upBytes, p.downBytes = up, r.down.Load()
	}
	p.msgs, p.skips = r.msgs.Load(), r.skips.Load()
	if r.tracer != nil {
		p.traceJSONL = r.buf.Bytes()
		spans, err := traceview.ReadSpans(bytes.NewReader(p.traceJSONL))
		if err != nil {
			p.fail("trace does not parse: %v", err)
		}
		p.spans = spans
	}
}
