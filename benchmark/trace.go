package main

import (
	"os"
	"sort"
	"sync"

	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/traceview"
	"repro/internal/transport"
)

// The wrappers below are the benchmark's only view into a running pass.
// They sit around public seams of the packages under test — transport.Conn,
// opt.Optimizer, fl.Sampler — and never reach into the program: the tracer
// is not passed to ServerConfig or fl.Config.
//
// Span names, all children of the pass's "round" span unless noted:
//
//	assign_send    server Send(MsgAssign), one per cohort member
//	client_busy    client Recv(MsgAssign) end → Send(MsgUpdate) start
//	wire_update    client Send(MsgUpdate) start → server Recv end
//	deltareq_send  server Send(MsgDeltaReq)
//	client_delta   client Recv(MsgDeltaReq) end → Send(MsgDelta) start
//	wire_delta     client Send(MsgDelta) start → server Recv end
//	local_train    simulator: optimizer Reset → its E-th Step
//	opt_step       one Optimizer.Step (child of client_busy / local_train)
//	sample         simulator: Sampler.Sample

// link hands a wire span from the client end of a connection to the server
// end: both live in this process, so one clock times the crossing.
type link struct {
	mu   sync.Mutex
	wire telemetry.ActiveSpan
	open bool
}

func (l *link) put(sp telemetry.ActiveSpan) {
	l.mu.Lock()
	l.wire, l.open = sp, true
	l.mu.Unlock()
}

func (l *link) end() {
	l.mu.Lock()
	if l.open {
		l.wire.End()
		l.open = false
	}
	l.mu.Unlock()
}

// serverConn is the server's end of a connection as Serve sees it. On every
// pass it reports round boundaries and counts the timed rounds' traffic; on
// a traced pass it also spans the broadcast sends and closes wire spans.
type serverConn struct {
	transport.Conn
	rec  *recorder
	link *link
	slot int
}

func (c *serverConn) Send(m *transport.Message) error {
	var sp telemetry.ActiveSpan
	switch m.Type {
	case transport.MsgAssign:
		c.rec.beginRound(int(m.Round))
		sp = c.span("assign_send", m.Round)
	case transport.MsgDeltaReq:
		sp = c.span("deltareq_send", m.Round)
	case transport.MsgDone:
		c.rec.finish()
	}
	err := c.Conn.Send(m)
	sp.End()
	if err == nil && m.Type != transport.MsgDone && c.rec.timed(m.Round) {
		c.rec.down.Add(int64(m.EncodedSize()))
		c.rec.msgs.Add(1)
		if m.Type == transport.MsgSkip {
			// Skips are counted, not spanned: a 1,024-slot round sends
			// hundreds of them.
			c.rec.skips.Add(1)
		}
	}
	return err
}

func (c *serverConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	switch m.Type {
	case transport.MsgJoin:
		c.rec.sawJoin()
		return m, nil
	case transport.MsgUpdate, transport.MsgDelta:
		c.link.end()
	}
	if c.rec.timed(m.Round) {
		c.rec.up.Add(int64(m.EncodedSize()))
		c.rec.msgs.Add(1)
	}
	return m, nil
}

func (c *serverConn) span(name string, round int32) telemetry.ActiveSpan {
	sp := c.rec.tracer.Start(name, c.rec.roundCtx())
	sp.Round, sp.Client = int(round), c.slot
	return sp
}

// clientConn is a client's end of a connection on a traced pass. RunClient
// drives it from one goroutine, so work needs no lock.
type clientConn struct {
	transport.Conn
	rec   *recorder
	link  *link
	slot  int
	round int
	work  telemetry.ActiveSpan // client_busy or client_delta in progress
}

func (c *clientConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	switch m.Type {
	case transport.MsgAssign:
		c.start("client_busy", m.Round)
	case transport.MsgDeltaReq:
		c.start("client_delta", m.Round)
	}
	return m, nil
}

func (c *clientConn) start(name string, round int32) {
	c.round = int(round)
	c.work = c.rec.tracer.Start(name, c.rec.roundCtx())
	c.work.Round, c.work.Client = c.round, c.slot
}

func (c *clientConn) Send(m *transport.Message) error {
	name := ""
	switch m.Type {
	case transport.MsgUpdate:
		name = "wire_update"
	case transport.MsgDelta:
		name = "wire_delta"
	}
	if name != "" {
		c.work.End()
		sp := c.rec.tracer.Start(name, c.rec.roundCtx())
		sp.Round, sp.Client = c.round, c.slot
		c.link.put(sp)
	}
	return c.Conn.Send(m)
}

// tracedOpt spans every optimizer step. In the simulator (client == nil) it
// also brackets a client's whole local training, which the optimizer sees
// as Reset followed by `steps` Steps.
type tracedOpt struct {
	opt.Optimizer
	rec    *recorder
	client *clientConn // session passes: the steps nest under its work span
	steps  int         // simulator passes: E
	taken  int
	train  telemetry.ActiveSpan
}

func (o *tracedOpt) Reset() {
	o.Optimizer.Reset()
	if o.client == nil {
		o.taken = 0
		o.train = o.rec.tracer.Start("local_train", o.rec.roundCtx())
		o.train.Round = o.rec.round()
	}
}

func (o *tracedOpt) Step(params []*nn.Param, lr float64) {
	parent := o.train
	if o.client != nil {
		parent = o.client.work
	}
	sp := o.rec.tracer.Start("opt_step", parent.Context())
	sp.Round, sp.Client = parent.Round, parent.Client
	o.Optimizer.Step(params, lr)
	sp.End()
	if o.client == nil {
		if o.taken++; o.taken == o.steps {
			o.train.End()
		}
	}
}

// tracedSampler spans cohort selection in the simulator.
type tracedSampler struct {
	fl.Sampler
	rec *recorder
}

func (s tracedSampler) Sample(f *fl.Federation, round int) []int {
	sp := s.rec.tracer.Start("sample", s.rec.roundCtx())
	sp.Round = round
	defer sp.End()
	return s.Sampler.Sample(f, round)
}

// countingFile is the ledger's sink: a real file, with the bytes written
// during the timed rounds counted.
type countingFile struct {
	f     *os.File
	rec   *recorder
	timed int64
}

func (c *countingFile) Write(b []byte) (int, error) {
	n, err := c.f.Write(b)
	if c.rec.round() >= c.rec.warmup {
		c.timed += int64(n)
	}
	return n, err
}

// interval is a half-open [start, end) stretch of the trace clock.
type interval struct{ start, end int64 }

// covered is the length of the union of ivs clipped to within.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start < clipped[b].start })
	var total, reach int64
	reach = within.start
	for _, iv := range clipped {
		if iv.start > reach {
			reach = iv.start
		}
		if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}

// selfTimes maps each span ID to its self time: its duration minus the part
// of it that its direct children cover.
func selfTimes(spans []traceview.Span) map[string]int64 {
	kids := make(map[string][]interval)
	for i := range spans {
		s := &spans[i]
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], interval{s.StartNS, s.EndNS()})
		}
	}
	self := make(map[string]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		self[s.Span] = s.DurNS - covered(interval{s.StartNS, s.EndNS()}, kids[s.Span])
	}
	return self
}

// traceSummary condenses a traced pass's timed rounds into per-layer
// numbers. Phase medians are NaN where the workload has no such phase.
type traceSummary struct {
	busyMS, deltaMS, wireMS []float64 // one sample per client-round
	sampleUS                []float64
	optStepMS               float64 // total over the timed rounds
	optSteps                int

	roundDurP50MS, roundSelfP50MS float64
	// Server-side phases between observed messages, median over rounds:
	// first assign send start → last assign send end; first → last update
	// arrival; last update arrival → first δ request; last δ arrival →
	// next round.
	bcastP50, skewP50, aggP50, closeP50 float64
}

func summarize(spans []traceview.Span, warmup int) traceSummary {
	var t traceSummary
	self := selfTimes(spans)
	type agg struct {
		round                                   *traceview.Span
		assignStart, assignEnd                  int64
		updFirst, updLast, dreqStart, deltaLast int64
	}
	byRound := map[int]*agg{}
	get := func(r int) *agg {
		a := byRound[r]
		if a == nil {
			a = &agg{}
			byRound[r] = a
		}
		return a
	}
	minSet := func(dst *int64, v int64) {
		if *dst == 0 || v < *dst {
			*dst = v
		}
	}
	maxSet := func(dst *int64, v int64) {
		if v > *dst {
			*dst = v
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Round == nil || *s.Round < warmup {
			continue
		}
		a := get(*s.Round)
		d := float64(s.DurNS) / 1e6
		switch s.Name {
		case "round":
			a.round = s
		case "assign_send":
			minSet(&a.assignStart, s.StartNS)
			maxSet(&a.assignEnd, s.EndNS())
		case "wire_update":
			t.wireMS = append(t.wireMS, d)
			minSet(&a.updFirst, s.EndNS())
			maxSet(&a.updLast, s.EndNS())
		case "deltareq_send":
			minSet(&a.dreqStart, s.StartNS)
		case "wire_delta":
			maxSet(&a.deltaLast, s.EndNS())
		case "client_busy":
			t.busyMS = append(t.busyMS, d)
		case "client_delta":
			t.deltaMS = append(t.deltaMS, d)
		case "opt_step":
			t.optStepMS += d
			t.optSteps++
		case "sample":
			t.sampleUS = append(t.sampleUS, d*1e3)
		}
	}
	var durs, selfs, bcasts, skews, aggs, closes []float64
	gap := func(dst *[]float64, from, to int64) {
		if from != 0 && to != 0 {
			*dst = append(*dst, float64(to-from)/1e6)
		}
	}
	for _, a := range byRound {
		if a.round == nil {
			continue
		}
		durs = append(durs, float64(a.round.DurNS)/1e6)
		selfs = append(selfs, float64(self[a.round.Span])/1e6)
		gap(&bcasts, a.assignStart, a.assignEnd)
		gap(&skews, a.updFirst, a.updLast)
		gap(&aggs, a.updLast, a.dreqStart)
		gap(&closes, a.deltaLast, a.round.EndNS())
	}
	t.roundDurP50MS, t.roundSelfP50MS = median(durs), median(selfs)
	t.bcastP50, t.skewP50, t.aggP50, t.closeP50 = median(bcasts), median(skews), median(aggs), median(closes)
	return t
}
