package transport

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// CodecPolicy is the server's preferred wire scheme per payload class. Each
// client gets the preferred scheme only if its join handshake advertised it
// (compress.Negotiate), so a mixed fleet degrades per client to dense
// instead of failing. The zero value means everything ships dense float64.
type CodecPolicy struct {
	// Broadcast compresses the server→client model params
	// (MsgAssign/MsgDeltaReq).
	Broadcast compress.Scheme
	// Update compresses the client→server trained model. A non-dense update
	// ships as the difference against the assigned broadcast, reconstructed
	// server-side against the same reference.
	Update compress.Scheme
	// Delta compresses the δ-map payloads of rFedAvg+'s second
	// synchronization, both directions.
	Delta compress.Scheme
}

// Algorithm selects the server-side aggregation protocol.
type Algorithm string

// Supported distributed algorithms.
const (
	AlgoFedAvg      Algorithm = "fedavg"
	AlgoRFedAvgPlus Algorithm = "rfedavg+"
)

// ServerConfig parameterizes a distributed training session.
type ServerConfig struct {
	Algorithm Algorithm
	Rounds    int
	// InitialParams is w_0; its length defines the model size.
	InitialParams []float64
	// FeatureDim is d, required for rFedAvg+.
	FeatureDim int
	// SampleRatio enables partial participation: each round only
	// ⌈SR·N⌉ clients train; the rest are sent nothing that round. Values ≤ 0
	// or ≥ 1 mean full participation.
	SampleRatio float64
	// Seed drives cohort sampling and the server side of stochastic wire
	// quantization (keyed per round/client, so resume is bitwise).
	Seed int64
	// Codec selects the preferred wire compression per payload class; the
	// zero value ships everything dense.
	Codec CodecPolicy

	// RoundDeadline bounds every protocol phase (join, assign+gather,
	// δ sync, done). A client that has not answered when the deadline
	// fires is evicted and the round completes over the survivors with
	// renormalized aggregation weights. 0 disables deadlines (a hung
	// client then blocks the session, the pre-fault-tolerance behavior).
	RoundDeadline time.Duration
	// MinClients is the quorum: a round that ends with fewer valid
	// updates fails and is retried (the global model is kept unchanged).
	// Values < 1 mean 1.
	MinClients int
	// Async enables buffered (FedBuff-style) rounds: a round closes once
	// BufferK cohort members delivered (quorum still respected), stragglers
	// keep running and their updates are folded into a later round with the
	// staleness discount 1/(1+age)^StalenessLambda. Slots with an update in
	// flight or parked are excluded from new cohorts until it settles.
	Async bool
	// BufferK is the fresh-arrival target of an async round; ≤ 0 waits for
	// the whole cohort (async plumbing, synchronous semantics).
	BufferK int
	// StalenessLambda is λ in the late-fold discount; ≤ 0 folds late
	// updates at full weight.
	StalenessLambda float64
	// AdaptiveDeadline replaces the fixed RoundDeadline with a controller
	// that tracks per-client round-time EWMAs and sets the deadline to a
	// high quantile of them (with headroom), clamped to
	// [MinDeadline, MaxDeadline]. Requires RoundDeadline > 0 (the starting
	// value).
	AdaptiveDeadline bool
	// MinDeadline/MaxDeadline clamp the adaptive controller; ≤ 0 default to
	// RoundDeadline/8 and RoundDeadline respectively.
	MinDeadline time.Duration
	MaxDeadline time.Duration
	// MaxRoundRetries caps consecutive failed attempts of one round
	// before the session aborts. 0 means 2.
	MaxRoundRetries int
	// MaxStaleness, when > 0, excludes δ rows not refreshed for more than
	// that many rounds from the regularization targets (evicted clients'
	// maps go stale instead of steering survivors forever).
	MaxStaleness int
	// Rejoin, if non-nil, delivers reconnecting clients. Each is expected
	// to send MsgJoin; at the next round boundary it is re-admitted into
	// a previously evicted slot (honoring the ClientID slot hint in its
	// join when that slot is free) and receives the current global model
	// with its first MsgAssign. Its δ row — kept stale since eviction —
	// is refreshed at its next δ sync.
	Rejoin <-chan Conn
	// CheckpointPath, if non-empty, makes the server write an atomic
	// round checkpoint (global params, δ table + ages, loss history,
	// round index) every CheckpointEvery rounds, so a killed session can
	// resume via Resume.
	CheckpointPath string
	// CheckpointEvery is the checkpoint period in rounds; ≤ 0 means 1.
	CheckpointEvery int
	// Resume restores a session from a checkpoint: training starts at
	// ck.Round with ck.Global and the saved δ table instead of
	// InitialParams and a zero table.
	Resume *Checkpoint
	// Logf receives eviction/rejoin/retry/checkpoint events
	// (fmt.Printf-style); nil discards them.
	Logf func(format string, args ...any)
	// Metrics receives the session's telemetry: per-phase round-duration
	// histograms, eviction/retry/rejoin counters, per-algorithm bytes on
	// the wire, and the δ staleness-age histogram. Nil uses
	// telemetry.Default(). Registration is idempotent, so many sessions
	// may share one registry.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives one JSONL line per lifecycle event
	// (evict, rejoin, retry, checkpoint, resume, round).
	Events *telemetry.EventLog
	// Tracer, when non-nil, records identified spans to a JSONL trace
	// file: session → join/round → phase → per-client, with the round
	// span's context stamped into MsgAssign/MsgDeltaReq frame headers so
	// client-side spans stitch into the same tree.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, receives one training-dynamics line per round
	// attempt: round loss, per-client losses and update norms, the pairwise
	// MMD matrix of the δ table (rFedAvg+), δ-row ages, evictions/rejoins,
	// and the attempt's wire bytes in each direction.
	Ledger *telemetry.RunLedger
	// Health, when non-nil, receives per-round health observations: every
	// validated update, async folds, δ drift, and evictions. Scores and
	// the round verdict land in the ledger and on the monitor's own
	// rfl_health_* metrics and /debug/fl/health snapshot.
	Health *health.Monitor
	// LedgerDetailN bounds the per-client ledger detail: sessions with more
	// client slots than this record summary statistics (cohort size,
	// loss/norm min-mean-max, age summary) and a sampled K×K MMD sub-matrix
	// instead of the O(N) per-client arrays and the O(N²) MMD block. 0 means
	// the default threshold (telemetry.DefaultLedgerDetailN); negative means
	// full detail at any N.
	LedgerDetailN int
}

// Eviction records one client dropped from a session.
type Eviction struct {
	Client int
	// Round is the round being attempted when the fault surfaced;
	// -1 means the join phase.
	Round  int
	Reason string
}

// RoundCohort records the participation mask of one successfully completed
// live round. Checkpointed rounds of a resumed session are not replayed and
// have no entry, which is what the resume-determinism regression test
// exploits: the masks of a kill-and-resume run must line up exactly with
// the same rounds of an uninterrupted run.
type RoundCohort struct {
	Round int
	// Mask[i] reports whether client slot i was sampled into the cohort.
	Mask []bool
}

// ServerResult summarizes a finished session.
type ServerResult struct {
	FinalParams []float64
	// RoundLosses[c] is the weighted mean client loss of round c
	// (including checkpointed rounds when resuming).
	RoundLosses []float64
	// Cohorts records each live round's sampled participation mask.
	Cohorts []RoundCohort
	// Evictions lists the clients dropped during the session, in order.
	Evictions []Eviction
	// Rejoins counts clients re-admitted through the Rejoin channel.
	Rejoins int
	// RetriedRounds counts round attempts that failed (quorum miss) and
	// were retried.
	RetriedRounds int
}

// session is the mutable state of one Serve call. All fields are mutated
// only between the wg.Wait barriers of the parallel phases, so no locking
// is needed.
type session struct {
	cfg        ServerConfig
	minClients int
	conns      []Conn
	active     []bool
	samples    []float64 // raw per-client sample counts (join / rejoin)
	global     []float64
	table      *core.DeltaTable
	res        *ServerResult
	metrics    *serverMetrics
	lastFault  string
	// held says which slots' next MsgAssign may omit the model: the round's
	// MsgDeltaReq already carried it.
	held engine.Held
	// codec is the per-client negotiated wire-compression state.
	codec sessionCodec
	// sessCtx is the root span all round/checkpoint spans parent to.
	sessCtx telemetry.SpanContext
	// rec is the reused ledger record; its slices are refilled each round
	// attempt so steady-state capture allocates nothing.
	rec telemetry.RoundRecord
	// lastRejoins and lastEvictions attribute what happened at the round
	// boundary (rejoins, dead peers reaped) to the following attempt's ledger
	// record.
	lastRejoins, lastEvictions int
	// pending holds handshaked rejoiners that arrived before their crashed
	// predecessor's eviction surfaced; they are re-placed at every round
	// boundary until a slot frees up.
	pending []pendingJoin

	// Async-mode state. busy[i] marks a slot whose update receiver is still
	// in flight (that goroutine is the slot's sole receiver until it
	// delivers on lateCh); buffered[i] is a parked late update awaiting its
	// fold. updAges tracks rounds since each slot's last aggregated update;
	// ctrl is the adaptive deadline controller (nil unless enabled).
	busy     []bool
	buffered []*BufferedUpdate
	lateCh   chan lateMsg
	updAges  *core.AgeTrack
	ctrl     *deadlineController

	// members, ioErrs and ioMsgs are the network phases' scratch: the member
	// list of the phase in progress, and per-slot results the IO pool writes at
	// a member's own index and the phase clears as it reads them. fresh holds
	// the attempt's validated updates — views of its frames, cleared with them —
	// and delivered marks the slots whose update it aggregates.
	members   []int
	ioErrs    []error
	ioMsgs    []*Message
	fresh     []engine.Update
	delivered []bool

	// ck is the checkpoint view session.checkpoint refills and ckImage its
	// encoded bytes, both reused from one checkpoint to the next.
	ck      Checkpoint
	ckImage []byte
}

// pendingJoin is a rejoining client that completed its handshake but is
// waiting for an evicted slot.
type pendingJoin struct {
	conn Conn
	join *Message
}

// sessionCodec is the negotiated wire-compression state: per client, the
// scheme chosen per payload class from the join handshake's caps; per session,
// the model-sized buffers of the compressed path. Slot state is allocated
// lazily at a client's first (re)join handshake — a session sized for 100k
// potential slots holds one pointer per slot until a client connects — and a
// synchronous session's slot holds nothing model-sized: codec memory follows
// the cohort, not the slots ever sampled.
type sessionCodec struct {
	policy CodecPolicy
	seed   int64
	n      int // client slots; also the stride separating server RNG salts
	nslot  int // slots with allocated state (negotiated at least once)

	slots []*codecSlot

	// A broadcast scheme that draws no randomness encodes a model the same for
	// everyone: bcast is version bcastVer under policy.Broadcast, encoded once
	// and sent to every slot that negotiated it, and bcastRef what they decode
	// it to — the reference their packed updates are rebuilt against.
	bcastVer int
	bcast    PackedVec
	bcastRef []float64
	// stage[j] holds the round's j-th rebuilt packed update until the round
	// has aggregated it; it grows to the largest cohort seen.
	stage [][]float64
}

// codecSlot is one client's negotiated schemes and codec buffers. The zero
// value is valid and means all-dense (compress.SchemeDense is the zero
// Scheme), so a slot read before its first negotiate behaves like an
// uncompressed client.
type codecSlot struct {
	caps  compress.Caps
	bcast compress.Scheme // server→client model params
	upd   compress.Scheme // client→server trained model
	delta compress.Scheme // δ payloads, both directions

	// bcastBuf is the slot's model payload under a stochastic broadcast scheme
	// — a (Seed, version, slot) stream each, nothing to share — and with that
	// the reference its packed update is rebuilt against.
	bcastBuf []byte
	// ref is an async session's copy of what the slot's last model payload
	// decodes to: a straggler's packed update may land after the model and
	// the shared broadcast have moved on.
	ref       []float64
	targetBuf []byte // MsgAssign packed δ target
	deltaDec  []float64
}

func (c *sessionCodec) init(policy CodecPolicy, seed int64, n int) {
	c.policy, c.seed, c.n = policy, seed, n
	c.nslot, c.bcastVer = 0, -1
	c.slots = make([]*codecSlot, n)
}

// slot returns client i's codec state, allocating it on first touch. Safe
// under the concurrent per-slot phases: each goroutine owns a distinct i,
// and writing slots[i] never moves the slice itself.
func (c *sessionCodec) slot(i int) *codecSlot {
	if c.slots[i] == nil {
		c.slots[i] = &codecSlot{}
		c.nslot++
	}
	return c.slots[i]
}

// allocated returns how many slots hold codec state — the quantity the
// codec's memory scales with (joined clients, not potential slots).
func (c *sessionCodec) allocated() int { return c.nslot }

// negotiate records client i's advertised caps and picks its scheme per
// payload class. Runs at every (re)join, so a rejoining binary with
// different caps renegotiates cleanly.
func (c *sessionCodec) negotiate(i int, caps compress.Caps) {
	sl := c.slot(i)
	sl.caps = caps
	sl.bcast = compress.Negotiate(c.policy.Broadcast, caps)
	sl.upd = compress.Negotiate(c.policy.Update, caps)
	sl.delta = compress.Negotiate(c.policy.Delta, caps)
}

// resizeFloats grows *buf to n elements, reusing its backing array when it
// already fits.
func resizeFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// packVec encodes v under s into *buf (grown as needed, reused otherwise),
// records the reconstruction error and returns the framed payload. recon and
// resid are compress.EncodeResidual's optional outputs from the same pass:
// what the peer will decode, and what it will be missing.
func packVec(buf *[]byte, s compress.Scheme, v []float64, rng *rand.Rand, recon, resid []float64) PackedVec {
	need := compress.EncodedBytes(s, len(v))
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	*buf = b
	compress.ObserveReconError(s, compress.EncodeResidual(s, b, v, rng, recon, resid))
	return PackedVec{Scheme: s, N: int32(len(v)), Data: b}
}

// shareBroadcast encodes the current global — model version `version` — once
// for all the slots a deterministic broadcast scheme serves, ahead of the IO
// fan-out. MsgDeltaReq(r) and the assigns of round r+1 carry the same version
// and share the encode; a resumed session starts with none cached.
func (s *session) shareBroadcast(version int) {
	c := &s.codec
	bs := c.policy.Broadcast
	if bs == compress.SchemeDense || !bs.Valid() || bs.Stochastic() || c.bcastVer == version {
		return
	}
	c.bcast = packVec(&c.bcast.Data, bs, s.global, nil, resizeFloats(&c.bcastRef, len(s.global)), nil)
	c.bcastVer = version
}

// modelPayload puts the current global on m for slot i — version counts the
// aggregations behind it, so round r's MsgAssign carries version r and its
// MsgDeltaReq version r+1 — dense or packed as negotiated; the caller has run
// shareBroadcast(version). A stochastic scheme's RNG is keyed by (Seed,
// version, slot), not by frame type: MsgDeltaReq(r) and a full MsgAssign(r+1)
// are the same bytes, so a client trains from the same model whether its
// assign was elided, retried or the first after a resume.
func (s *session) modelPayload(m *Message, i, version int) {
	sl := s.codec.slot(i)
	ref := s.global
	switch bs := sl.bcast; {
	case bs == compress.SchemeDense:
		m.Params = s.global
	case bs.Stochastic():
		m.PParams = packVec(&sl.bcastBuf, bs, s.global, compress.RNG(s.cfg.Seed, version, i+s.codec.n), nil, nil)
		return
	default:
		m.PParams, ref = s.codec.bcast, s.codec.bcastRef
	}
	if s.cfg.Async && sl.upd != compress.SchemeDense {
		copy(resizeFloats(&sl.ref, len(ref)), ref)
	}
}

// Serve runs a synchronous federated session over the given established
// client connections, then sends MsgDone with the final model and returns
// it. It drives the rounds fl.Run + core.RFedAvgPlus simulate over real
// connections; the round's arithmetic — cohort draw, validation, weights,
// aggregate, health and ledger observation — is internal/engine in both.
//
// Unlike the straight-line happy path it replaces, the protocol loop is
// structured around *round attempts*: clients that error, time out past
// RoundDeadline, or ship invalid updates are evicted mid-round and the
// round completes over the survivors with renormalized weights; a round
// that ends below the MinClients quorum is retried up to MaxRoundRetries
// times before the session aborts. Evicted clients may reconnect through
// cfg.Rejoin and are re-admitted at the next round boundary.
func Serve(cfg ServerConfig, conns []Conn) (*ServerResult, error) {
	return new(session).serve(cfg, conns)
}

// serve is Serve on a session the caller can look into afterwards.
func (s *session) serve(cfg ServerConfig, conns []Conn) (*ServerResult, error) {
	if len(conns) == 0 {
		return nil, fmt.Errorf("transport: no clients")
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("transport: non-positive rounds %d", cfg.Rounds)
	}
	switch cfg.Algorithm {
	case AlgoFedAvg:
	case AlgoRFedAvgPlus:
		if cfg.FeatureDim <= 0 {
			return nil, fmt.Errorf("transport: rfedavg+ requires FeatureDim")
		}
	default:
		return nil, fmt.Errorf("transport: unknown algorithm %q (want %q or %q)", cfg.Algorithm, AlgoFedAvg, AlgoRFedAvgPlus)
	}
	*s = session{
		cfg:        cfg,
		minClients: max(cfg.MinClients, 1),
		conns:      make([]Conn, len(conns)),
		active:     make([]bool, len(conns)),
		samples:    make([]float64, len(conns)),
		held:       make(engine.Held, len(conns)),
		ioErrs:     make([]error, len(conns)),
		ioMsgs:     make([]*Message, len(conns)),
		delivered:  make([]bool, len(conns)),
		global:     append([]float64(nil), cfg.InitialParams...),
		table:      core.NewServerTable(len(conns), max(cfg.FeatureDim, 1), cfg.MaxStaleness),
		res:        &ServerResult{},
	}
	s.codec.init(cfg.Codec, cfg.Seed, len(conns))
	s.metrics = newServerMetrics(cfg.Metrics, cfg.Algorithm)
	s.busy = make([]bool, len(conns))
	s.buffered = make([]*BufferedUpdate, len(conns))
	s.lateCh = make(chan lateMsg, len(conns))
	s.updAges = core.NewAgeTrack(len(conns))
	if cfg.AdaptiveDeadline {
		if cfg.RoundDeadline <= 0 {
			return nil, fmt.Errorf("transport: adaptive deadline requires a positive RoundDeadline to start from")
		}
		minD, maxD := cfg.MinDeadline, cfg.MaxDeadline
		if minD <= 0 {
			minD = cfg.RoundDeadline / 8
		}
		if maxD <= 0 {
			maxD = cfg.RoundDeadline
		}
		if minD > maxD {
			return nil, fmt.Errorf("transport: MinDeadline %v exceeds MaxDeadline %v", minD, maxD)
		}
		s.ctrl = newDeadlineController(len(conns), cfg.RoundDeadline, minD, maxD, s.metrics)
	}
	for i, c := range conns {
		s.conns[i] = s.wrap(c)
		s.active[i] = true
	}
	maxRetries := cfg.MaxRoundRetries
	if maxRetries <= 0 {
		maxRetries = 2
	}

	// The session root span: every round attempt and checkpoint parents to
	// it, making the trace ID the session's identity across processes.
	sessSpan := cfg.Tracer.Start("session", telemetry.SpanContext{})
	defer sessSpan.End()
	s.sessCtx = sessSpan.Context()

	// Join phase: collect shard sizes; a client that fails its join is
	// evicted rather than aborting everyone else's session.
	joinSpan := telemetry.StartSpan(s.metrics.joinSec)
	tJoin := cfg.Tracer.Start("join", s.sessCtx)
	err := s.collectJoins()
	tJoin.End()
	joinSpan.End()
	if err != nil {
		return nil, err
	}
	s.lastEvictions = len(s.res.Evictions) // join failures belong to no round

	startRound := 0
	if cfg.Resume != nil {
		var err error
		if startRound, err = s.restore(cfg.Resume); err != nil {
			return nil, err
		}
		s.logf("resumed from checkpoint at round %d", startRound)
		s.event("resume", startRound, cfg.CheckpointPath)
	}

	attempts := 0
	for round := startRound; round < cfg.Rounds; {
		s.admitRejoins(round)
		ok := s.activeCount() >= s.minClients || s.waitForQuorum()
		if ok {
			ok = s.runRound(round, attempts+1)
		}
		if !ok {
			attempts++
			s.res.RetriedRounds++
			s.metrics.retries.Inc()
			s.logf("round %d attempt %d failed (quorum %d, %d active)", round, attempts, s.minClients, s.activeCount())
			s.event("retry", round, s.lastFaultOr(""))
			if attempts > maxRetries {
				s.checkpoint(round) // leave a resumable state behind
				s.closePending()
				return nil, fmt.Errorf("transport: round %d failed after %d attempts (last fault: %s)",
					round, attempts, s.lastFaultOr("none"))
			}
			continue
		}
		attempts = 0
		round++
		every := max(cfg.CheckpointEvery, 1)
		if round%every == 0 || round == cfg.Rounds {
			s.checkpoint(round)
		}
	}

	// Session end: best-effort MsgDone. A dead client here must not fail
	// a session whose training already succeeded.
	s.closePending()
	ctx, cancel := s.phaseCtx()
	ioParallel(len(s.conns), ioWorkers(), func(i int) {
		if !s.active[i] {
			return
		}
		if err := sendCtx(ctx, s.conns[i], &Message{Type: MsgDone, Params: s.global}); err != nil {
			s.logf("done to client %d failed (ignored): %v", i, err)
		}
	})
	cancel()
	s.res.FinalParams = s.global
	return s.res, nil
}

// wrap meters a conn into the session's byte series and puts the deadline
// wrapper around it when deadlines are on. The metering wrapper goes inside
// the deadlineConn so sendCtx/recvCtx still see a *deadlineConn.
func (s *session) wrap(c Conn) Conn {
	c = s.metrics.meter(c)
	if s.cfg.RoundDeadline > 0 {
		return newDeadlineConn(c)
	}
	return c
}

func (s *session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// event appends one line to the optional JSONL event log.
func (s *session) event(event string, round int, detail string) {
	s.cfg.Events.Emit(event, round, detail)
}

func (s *session) lastFaultOr(fallback string) string {
	if s.lastFault == "" {
		return fallback
	}
	return s.lastFault
}

// curDeadline is the deadline currently in force: the adaptive controller's
// bound when enabled, else the fixed RoundDeadline.
func (s *session) curDeadline() time.Duration {
	if s.ctrl != nil {
		return s.ctrl.current()
	}
	return s.cfg.RoundDeadline
}

// phaseCtx returns the per-phase deadline context.
func (s *session) phaseCtx() (context.Context, context.CancelFunc) {
	d := s.curDeadline()
	if d <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), d)
}

func (s *session) activeCount() int {
	n := 0
	for _, a := range s.active {
		if a {
			n++
		}
	}
	return n
}

// evict removes client i from the session: its connection is closed (which
// also reaps any deadline-abandoned goroutine blocked on it) and its
// aggregation weight stops counting. Its δ row stays in the table — stale
// — so the regularization targets degrade gracefully and a rejoin resumes
// from the last known map.
func (s *session) evict(i, round int, reason string) {
	if !s.active[i] {
		return
	}
	s.active[i] = false
	s.held.Drop(i)
	s.conns[i].Close()
	s.res.Evictions = append(s.res.Evictions, Eviction{Client: i, Round: round, Reason: reason})
	s.metrics.evictions.Inc()
	s.lastFault = fmt.Sprintf("client %d: %s", i, reason)
	s.cfg.Health.ObserveEvict(i)
	s.logf("evicted client %d (round %d): %s", i, round, reason)
	s.event("evict", round, s.lastFault)
}

// collectJoins gathers the MsgJoin handshake from every initial client over
// the bounded IO pool.
func (s *session) collectJoins() error {
	ctx, cancel := s.phaseCtx()
	defer cancel()
	msgs := make([]*Message, len(s.conns))
	errs := make([]error, len(s.conns))
	ioParallel(len(s.conns), ioWorkers(), func(i int) {
		msgs[i], errs[i] = recvCtx(ctx, s.conns[i])
	})
	for i, m := range msgs {
		switch {
		case errs[i] != nil:
			s.evict(i, -1, fmt.Sprintf("join: %v", errs[i]))
		case m.Type != MsgJoin:
			s.evict(i, -1, fmt.Sprintf("sent %d, want join", m.Type))
		case m.NumSamples <= 0:
			s.evict(i, -1, fmt.Sprintf("joined with %d samples", m.NumSamples))
		default:
			s.samples[i] = float64(m.NumSamples)
			s.codec.negotiate(i, m.Caps)
		}
	}
	if s.activeCount() == 0 {
		return fmt.Errorf("transport: no clients joined (last fault: %s)", s.lastFaultOr("none"))
	}
	return nil
}

// restore loads checkpoint state into the session.
func (s *session) restore(ck *Checkpoint) (int, error) {
	if len(ck.Global) != len(s.global) {
		return 0, fmt.Errorf("transport: checkpoint has %d params, model has %d", len(ck.Global), len(s.global))
	}
	if ck.Round < 0 || ck.Round > s.cfg.Rounds {
		return 0, fmt.Errorf("transport: checkpoint round %d outside [0, %d]", ck.Round, s.cfg.Rounds)
	}
	copy(s.global, ck.Global)
	if s.cfg.Algorithm == AlgoRFedAvgPlus && ck.DeltaRows != nil {
		if len(ck.DeltaRows) != len(s.conns) {
			return 0, fmt.Errorf("transport: checkpoint has %d δ rows, session has %d clients", len(ck.DeltaRows), len(s.conns))
		}
		for k, row := range ck.DeltaRows {
			if row == nil {
				continue // sparse checkpoint: slot never reported a map
			}
			if len(row) != s.cfg.FeatureDim {
				return 0, fmt.Errorf("transport: checkpoint δ row %d has %d dims, want %d", k, len(row), s.cfg.FeatureDim)
			}
			s.table.Set(k, row)
		}
		for k, age := range ck.DeltaAges {
			if k < len(s.conns) {
				s.table.SetAge(k, age)
			}
		}
		s.table.SetTicks(ck.DeltaTicks)
	}
	if err := s.restoreAsync(ck); err != nil {
		return 0, err
	}
	s.res.RoundLosses = append(s.res.RoundLosses, ck.RoundLosses...)
	return ck.Round, nil
}

// checkpoint writes the current round boundary to CheckpointPath (best
// effort: a failed write is logged, not fatal to training).
func (s *session) checkpoint(nextRound int) {
	if s.cfg.CheckpointPath == "" {
		return
	}
	// ck is a view, not a copy: nothing mutates the model, the δ rows or the
	// age tracks between rounds, and the encoder only reads them. Its slot-sized
	// slices and the encoded image are session-owned, so the steady state
	// allocates nothing that grows with the slots.
	ck := &s.ck
	ck.Round, ck.Global, ck.RoundLosses = nextRound, s.global, s.res.RoundLosses
	if s.cfg.Algorithm == AlgoRFedAvgPlus {
		// Sparse capture: only occupied (ever-Set) rows carry float data;
		// never-joined slots stay nil and cost nothing on disk. Ages stay
		// dense in memory (ints), encoded as ticks-default + exceptions.
		if ck.DeltaRows == nil {
			ck.DeltaRows = make([][]float64, len(s.conns))
			ck.DeltaAges = make([]int, len(s.conns))
		}
		s.table.ForEachRow(func(k int, row []float64) { ck.DeltaRows[k] = row })
		for k := range ck.DeltaAges {
			ck.DeltaAges[k] = s.table.Age(k)
		}
		ck.DeltaTicks = s.table.Ticks()
	}
	if ck.UpdateAges == nil {
		ck.UpdateAges = make([]int, s.updAges.Len())
	}
	s.updAges.ForEach(func(k, age int) { ck.UpdateAges[k] = age })
	ck.UpdateTicks = s.updAges.Ticks()
	// Parked-but-unaggregated updates ship with the checkpoint so a resumed
	// session folds exactly what this one would have.
	ck.Buffered = ck.Buffered[:0]
	for _, b := range s.buffered { // slot order, as folds() returns them
		if b != nil {
			ck.Buffered = append(ck.Buffered, *b)
		}
	}
	span := telemetry.StartSpan(s.metrics.checkpointSec)
	tCk := s.cfg.Tracer.Start("checkpoint", s.sessCtx)
	tCk.Round = nextRound
	img, err := ck.appendTo(s.ckImage[:0])
	if err == nil {
		s.ckImage = img
		err = saveImage(s.cfg.CheckpointPath, img)
	}
	tCk.End()
	span.End()
	if err != nil {
		s.logf("checkpoint at round %d failed (ignored): %v", nextRound, err)
		return
	}
	s.metrics.checkpoints.Inc()
	s.logf("checkpoint at round %d → %s", nextRound, s.cfg.CheckpointPath)
	s.event("checkpoint", nextRound, s.cfg.CheckpointPath)
}

// closePending closes rejoiners that never found a slot, so their clients
// observe EOF instead of blocking forever on a session that has ended.
func (s *session) closePending() {
	for _, p := range s.pending {
		p.conn.Close()
	}
	s.pending = nil
}

// admitRejoins runs at every round boundary: it reaps dead idle peers,
// re-places parked rejoiners (whose slot may have freed since last round) and
// drains the rejoin channel without blocking.
//
// The reap is what a frame to every slot used to give for free. A client
// outside the cohort is sent nothing, so no send can fail on it; its deadline
// pump still sees the read fail, and the slot is evicted here. A busy (async)
// slot is left to its in-flight receiver. Without RoundDeadline there is no
// pump: such a peer is evicted when it is next sampled.
func (s *session) admitRejoins(round int) {
	for i, c := range s.conns {
		if dc, ok := c.(*deadlineConn); ok && s.active[i] && !s.busy[i] {
			if err := dc.readErr.Load(); err != nil {
				s.evict(i, round, fmt.Sprintf("peer gone: %v", *err))
			}
		}
	}
	parked := s.pending
	s.pending = nil
	for _, p := range parked {
		s.place(p)
	}
	for s.cfg.Rejoin != nil {
		select {
		case c, ok := <-s.cfg.Rejoin:
			if !ok {
				s.cfg.Rejoin = nil
				return
			}
			s.admit(c)
		default:
			return
		}
	}
}

// waitForQuorum blocks on the rejoin channel (up to one RoundDeadline per
// attempt) hoping enough clients come back; reports whether quorum holds.
func (s *session) waitForQuorum() bool {
	if s.cfg.Rejoin == nil {
		return false
	}
	var timeout <-chan time.Time
	if d := s.curDeadline(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for s.activeCount() < s.minClients {
		select {
		case c, ok := <-s.cfg.Rejoin:
			if !ok {
				s.cfg.Rejoin = nil
				return false
			}
			s.admit(c)
		case <-timeout:
			return false
		}
	}
	return true
}

// admit performs the join handshake with a reconnecting client and hands it
// to place. A rejoiner can outrun its own eviction — the reconnect may land
// before the crash has surfaced server-side — so a handshaked client that
// finds no free slot is parked, not refused, and re-placed each boundary.
func (s *session) admit(raw Conn) {
	c := s.wrap(raw)
	ctx, cancel := s.phaseCtx()
	m, err := recvCtx(ctx, c)
	cancel()
	if err != nil || m.Type != MsgJoin || m.NumSamples <= 0 {
		s.logf("rejoin refused (bad handshake): %v", err)
		c.Close()
		return
	}
	s.place(pendingJoin{conn: c, join: m})
}

// place re-admits a handshaked rejoiner into an evicted slot — the slot its
// join hints at if that one is free, else the lowest evicted slot. The slot
// keeps its (stale) δ row, so the client resumes exactly where the
// δ-staleness fallback left it. With every slot still active the rejoiner is
// parked for the next boundary.
func (s *session) place(p pendingJoin) {
	slot := -1
	if id := int(p.join.ClientID); id >= 0 && id < len(s.conns) && !s.active[id] {
		slot = id
	} else {
		for i, a := range s.active {
			if !a {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		s.logf("rejoin parked: no evicted slot free yet")
		s.pending = append(s.pending, p)
		return
	}
	s.conns[slot] = p.conn
	s.active[slot] = true
	s.held.Drop(slot)
	s.samples[slot] = float64(p.join.NumSamples)
	s.codec.negotiate(slot, p.join.Caps)
	s.res.Rejoins++
	s.metrics.rejoins.Inc()
	s.logf("client rejoined into slot %d (%d samples, δ age %d)", slot, p.join.NumSamples, s.table.Age(slot))
	s.event("rejoin", -1, fmt.Sprintf("slot %d", slot))
}

// runRound wraps one round attempt with its observability capture: the
// traced round span (parent of every phase and per-client span, and of the
// client-side spans via the frame headers), and the ledger record for the
// attempt — written for failed attempts too (ok=false, loss=null), so the
// ledger shows retries rather than silently eliding them.
func (s *session) runRound(round, attempt int) bool {
	roundSpan := telemetry.StartSpan(s.metrics.roundSec)
	tRound := s.cfg.Tracer.Start("round", s.sessCtx)
	tRound.Round = round

	rec := &s.rec
	rec.Reset()
	rec.Algo = string(s.cfg.Algorithm)
	rec.Round, rec.Attempt = round, attempt
	rec.Loss = math.NaN()
	sentBefore, recvBefore := s.metrics.bytesSent.Value(), s.metrics.bytesRecv.Value()
	elidedBefore := s.metrics.elided.Value()

	start := time.Now()
	ok := s.attemptRound(round, tRound.Context())

	tRound.End()
	roundSpan.End()
	if s.cfg.Ledger != nil {
		rec.OK = ok
		// Measured with the session's own clock: an inert span (nil
		// tracer) has no meaningful start to subtract from.
		rec.DurNanos = int64(time.Since(start))
		rec.DownBytes = s.metrics.bytesSent.Value() - sentBefore
		rec.UpBytes = s.metrics.bytesRecv.Value() - recvBefore
		rec.Elided = int(s.metrics.elided.Value() - elidedBefore)
		for _, ev := range s.res.Evictions[s.lastEvictions:] {
			rec.Evicted = append(rec.Evicted, ev.Client)
		}
		rec.Rejoins = s.res.Rejoins - s.lastRejoins
		s.cfg.Ledger.Record(rec)
	}
	s.lastRejoins, s.lastEvictions = s.res.Rejoins, len(s.res.Evictions)
	return ok
}

// attemptRound attempts one full round over the currently active clients.
// It returns false — leaving the global model untouched — when fewer than
// MinClients valid updates arrive (satisfying quorum is the caller's
// retry loop's job). Faulty clients are evicted along the way.
//
// The cohort RNG is re-derived from (Seed, round) at every attempt: a
// resumed server samples the same cohorts at round r as one that never
// died, and a retried attempt re-samples the same cohort instead of
// silently consuming extra draws and perturbing every later round.
func (s *session) attemptRound(round int, roundCtx telemetry.SpanContext) bool {
	defer func() { // the round's frames, and the views of them, must not outlive it
		clear(s.ioMsgs)
		clear(s.fresh)
	}()
	var rec *telemetry.RoundRecord // the attempt's ledger record; nil without a ledger
	if s.cfg.Ledger != nil {
		rec = &s.rec
	}
	detail := engine.Detail(s.cfg.LedgerDetailN, len(s.conns))
	plus := s.cfg.Algorithm == AlgoRFedAvgPlus
	population := s.active
	if s.cfg.Async {
		// Settle straggler deliveries that landed between rounds, wait (if
		// needed) until assignable + parked slots can reach quorum, and
		// sample only from slots with no update in flight or parked.
		s.drainLate(round)
		s.awaitAvail(round)
		population = s.asyncEligible()
	}
	if d := s.curDeadline(); rec != nil && d > 0 {
		rec.DeadlineSec = d.Seconds()
	}
	cohort := make([]bool, len(population))
	for _, i := range engine.Sample(cohortRNG(s.cfg.Seed, round), population, s.cfg.SampleRatio, s.minClients) {
		cohort[i] = true
	}
	// A hold starts only in a round that sampled nobody out (engine.Held).
	whole := true
	for i, in := range population {
		if in && !cohort[i] {
			whole = false
			break
		}
	}

	// Sync #1: assign work to the cohort; everyone else hears nothing. Assign
	// frames carry the round span's context so client-side spans join the tree.
	ctx, cancel := s.phaseCtx()
	bSpan := telemetry.StartSpan(s.metrics.broadcastSec)
	tb := s.cfg.Tracer.Start("broadcast", roundCtx)
	tb.Round = round
	members := s.membersOf(cohort)
	s.shareBroadcast(round)
	s.broadcastActive(ctx, round, roundCtx, members, func(i int) *Message {
		sl := s.codec.slot(i)
		m := &Message{Type: MsgAssign, Round: int32(round), ClientID: int32(i), Want: sl.upd}
		// The client still holds this model from last round's MsgDeltaReq:
		// ship it once.
		if s.held.Assign(i, round) {
			s.metrics.elided.Inc()
		} else {
			s.modelPayload(m, i, round)
		}
		if plus {
			target := s.table.MeanExcluding(i)
			if ds := sl.delta; ds != compress.SchemeDense && len(target) > 0 {
				// Salted one stride past the model encode's stream (modelPayload).
				m.PDelta = packVec(&sl.targetBuf, ds, target, compress.RNGFor(ds, s.cfg.Seed, round, i+2*s.codec.n), nil, nil)
			} else {
				m.Delta = target
			}
		}
		return m
	})
	tb.End()
	bSpan.End()
	gSpan := telemetry.StartSpan(s.metrics.gatherSec)
	tg := s.cfg.Tracer.Start("gather", roundCtx)
	tg.Round = round
	var updates []*Message
	if s.cfg.Async {
		updates = s.gatherAsyncUpdates(round, cohort, tg.Context())
	} else {
		updates = s.gatherActive(ctx, round, members, MsgUpdate, "gather_client", tg.Context())
	}
	tg.End()
	gSpan.End()
	cancel()

	// Validate before aggregating. Packed updates are difference-coded:
	// params = reference + decode(payload), where the reference is the decoded
	// broadcast the client trained from (the exact global when the broadcast
	// itself went dense).
	delivered := s.delivered
	clear(delivered)
	fresh, staged := s.fresh[:0], 0
	for i, m := range updates {
		if m == nil {
			continue
		}
		if staged == len(s.codec.stage) {
			s.codec.stage = append(s.codec.stage, nil)
		}
		params, err := s.decodeUpdate(i, m, &s.codec.stage[staged])
		if m.PParams.N > 0 {
			staged++
		}
		if err != nil {
			s.evict(i, round, err.Error())
			continue
		}
		if rec != nil && rec.UpScheme == "" {
			if m.PParams.N > 0 {
				rec.UpScheme = m.PParams.Scheme.String()
			} else if len(params) > 0 {
				rec.UpScheme = compress.SchemeDense.String()
			}
		}
		u := engine.Update{Client: i, Samples: s.samples[i], Loss: m.Loss, Params: params}
		if err := engine.Validate(u, len(s.global)); err != nil {
			s.evict(i, round, err.Error())
			continue
		}
		delivered[i] = true
		fresh = append(fresh, u)
	}
	s.fresh = fresh
	// Parked late updates (already validated at park time) count toward the
	// quorum and fold into this aggregation with their staleness discount.
	var late []engine.Update
	if s.cfg.Async {
		late = s.folds(round)
	}
	if len(fresh)+len(late) < s.minClients {
		return false
	}
	// The close reads the validated cohort while s.global is still the model
	// the clients trained from.
	next := make([]float64, len(s.global))
	loss, ok := engine.Close(s.cfg.Health, rec, detail, round, s.global, next, fresh, late, s.cfg.StalenessLambda)
	if !ok {
		s.lastFault = "empty effective cohort (wsum = 0)"
		return false
	}
	for _, u := range late {
		// A folded client is idle again: it joins the second synchronization
		// (rFedAvg+), refreshing the δ row its lateness let go stale.
		delivered[u.Client] = true
		s.buffered[u.Client] = nil
		s.metrics.lateFolds.Inc()
		lf := s.cfg.Tracer.Start("late_fold", roundCtx)
		lf.Round, lf.Client = round, u.Client
		lf.End()
		s.logf("folded client %d's round-%d update into round %d (age %d, weight %.3f)",
			u.Client, round-u.Age, round, u.Age, engine.StalenessWeight(u.Age, s.cfg.StalenessLambda))
	}
	s.metrics.buffered.Set(float64(s.bufferedCount()))
	s.global = next
	s.res.RoundLosses = append(s.res.RoundLosses, loss)
	if rec != nil {
		rec.Loss = loss
	}

	// Sync #2 (rFedAvg+ only): ship the new global model, gather maps.
	// A client lost here keeps its previous (now stale) row — the
	// δ-staleness fallback — instead of failing the round.
	if plus {
		dSpan := telemetry.StartSpan(s.metrics.deltaSyncSec)
		td := s.cfg.Tracer.Start("delta_sync", roundCtx)
		td.Round = round
		ctx2, cancel2 := s.phaseCtx()
		members = s.membersOf(delivered)
		s.shareBroadcast(round + 1)
		s.broadcastActive(ctx2, round, roundCtx, members, func(i int) *Message {
			m := &Message{Type: MsgDeltaReq, Round: int32(round), ClientID: int32(i), Want: s.codec.slot(i).delta}
			s.modelPayload(m, i, round+1)
			if whole {
				s.held.Hold(i, round+1)
			}
			return m
		})
		deltas := s.gatherActive(ctx2, round, members, MsgDelta, "delta_client", td.Context())
		cancel2()
		for i, m := range deltas {
			if m == nil {
				continue
			}
			if m.PDelta.N > 0 {
				if int(m.PDelta.N) != s.cfg.FeatureDim {
					s.evict(i, round, fmt.Sprintf("sent packed δ of %d dims, want %d", m.PDelta.N, s.cfg.FeatureDim))
					continue
				}
				dec := resizeFloats(&s.codec.slot(i).deltaDec, s.cfg.FeatureDim)
				if err := compress.DecodeInto(dec, m.PDelta.Scheme, m.PDelta.Data); err != nil {
					s.evict(i, round, fmt.Sprintf("packed δ: %v", err))
					continue
				}
				m.Delta = dec
			}
			if err := s.table.Accept(i, m.Delta); err != nil {
				s.evict(i, round, err.Error())
			}
		}
		s.table.ObserveDrift(s.cfg.Health)
		td.End()
		dSpan.End()
	}
	// Age the δ table once per *successful* round for both algorithms.
	// Previously this ran only under rFedAvg+, leaving MaxStaleness dead
	// for plain FedAvg sessions: rows never aged, so the staleness bound
	// was silently ignored outside the plus branch.
	s.table.Tick()
	s.metrics.observeDeltaAges(s.table, s.cfg.MaxStaleness)
	// Model-update staleness accounting: contributors (fresh and folded)
	// reset to 0, then everyone ages one round — the update-track twin of
	// the δ-row aging above, and the ages a checkpoint persists.
	for i, d := range delivered {
		if d {
			s.updAges.Reset(i)
		}
	}
	s.updAges.Tick()
	s.metrics.observeUpdateAges(s.updAges)
	if s.ctrl != nil {
		// Retarget the next phases' deadline from this round's observed
		// client latencies.
		s.ctrl.update()
	}
	if rec != nil {
		if plus {
			engine.LedgerMMD(rec, detail, s.table, s.table.N)
		}
		engine.LedgerAges(rec, detail, s.table, s.table.N)
	}
	engine.EndRound(s.cfg.Health, rec, detail, loss)
	s.res.Cohorts = append(s.res.Cohorts, RoundCohort{Round: round, Mask: cohort})
	s.metrics.rounds.Inc()
	return true
}

// cohortRNG derives the round's cohort-sampling stream from (seed, round)
// alone, so resumed sessions and retried round attempts reproduce the exact
// cohort an uninterrupted run would sample (same mixing constants as
// fl.roundRNG).
func cohortRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)*7919 + 17))
}

// membersOf lists the active slots marked in mask, in slot order — the only
// slots a network phase touches. The list is session scratch, valid until the
// next call.
func (s *session) membersOf(mask []bool) []int {
	s.members = s.members[:0]
	for i, in := range mask {
		if in && s.active[i] {
			s.members = append(s.members, i)
		}
	}
	return s.members
}

// broadcastActive sends mk(i) to every member over the bounded IO pool,
// stamping the round span's context onto each frame; clients whose send
// fails are evicted (serially, in slot order, after the pool drains).
func (s *session) broadcastActive(ctx context.Context, round int, span telemetry.SpanContext, members []int, mk func(i int) *Message) {
	ioParallel(len(members), ioWorkers(), func(j int) {
		i := members[j]
		m := mk(i)
		m.setSpanContext(span)
		s.ioErrs[i] = sendCtx(ctx, s.conns[i], m)
	})
	for _, i := range members {
		if err := s.ioErrs[i]; err != nil {
			s.ioErrs[i] = nil
			s.evict(i, round, fmt.Sprintf("broadcast: %v", err))
		}
	}
}

// gatherActive receives one message of the expected type (for the current
// round) from every member still active; other slots are nil. Clients that
// error, time out, or flood garbage are evicted and their slot stays nil.
// Each wait is recorded as a per-client span under the phase span — the raw
// material for straggler attribution. The result is session scratch, indexed
// by slot and valid until the next gather.
func (s *session) gatherActive(ctx context.Context, round int, members []int, want MsgType, spanName string, parent telemetry.SpanContext) []*Message {
	msgs := s.ioMsgs
	clear(msgs)
	ioParallel(len(members), ioWorkers(), func(j int) {
		i := members[j]
		if !s.active[i] {
			return // evicted by the broadcast just before
		}
		sp := s.cfg.Tracer.Start(spanName, parent)
		sp.Round, sp.Client = round, i
		start := time.Now()
		msgs[i], s.ioErrs[i] = gatherOne(ctx, s.conns[i], want, round)
		sp.End()
		if s.ctrl != nil && want == MsgUpdate && s.ioErrs[i] == nil {
			// Per-slot EWMA write: no two goroutines share a slot.
			s.ctrl.observe(i, time.Since(start))
		}
	})
	for _, i := range members {
		if err := s.ioErrs[i]; err != nil {
			s.ioErrs[i], msgs[i] = nil, nil
			s.evict(i, round, fmt.Sprintf("gather: %v", err))
		}
	}
	return msgs
}

// gatherOne receives until it sees the wanted (type, round) frame,
// skipping a bounded number of stale frames — duplicated deliveries and
// leftovers from failed round attempts — before giving up.
func gatherOne(ctx context.Context, c Conn, want MsgType, round int) (*Message, error) {
	const skipBudget = 4
	for skips := 0; ; skips++ {
		m, err := recvCtx(ctx, c)
		if err != nil {
			return nil, err
		}
		if m.Type == want && int(m.Round) == round {
			return m, nil
		}
		if skips >= skipBudget {
			return nil, fmt.Errorf("got message type %d round %d, want %d round %d", m.Type, m.Round, want, round)
		}
	}
}
