package transport

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/tensor"
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
	// BufferK > 0 makes rounds buffered (FedBuff-style): a round closes once
	// BufferK cohort members delivered (capped at the cohort, raised to keep
	// quorum), stragglers keep running and their updates are folded into a
	// later round with the staleness discount 1/(1+age)^StalenessLambda.
	// Slots with an update in flight or parked are excluded from new cohorts
	// until it settles. 0 means synchronous rounds.
	BufferK int
	// StalenessLambda is λ in the late-fold discount; ≤ 0 folds late
	// updates at full weight.
	StalenessLambda float64
	// AdaptiveDeadline replaces the fixed RoundDeadline with a controller
	// that tracks per-client round-time estimates (SRTT + 4·RTTVAR, RFC
	// 6298) and sets the deadline to a high quantile of them, clamped to
	// [RoundDeadline/8, RoundDeadline]. Requires RoundDeadline > 0 (the
	// starting value).
	AdaptiveDeadline bool
	// MaxStaleness, when > 0, excludes δ rows not refreshed for more than
	// that many rounds from the regularization targets (evicted clients'
	// maps go stale instead of steering survivors forever).
	MaxStaleness int
	// Rejoin, if non-nil, delivers reconnecting clients: a live session
	// takes them in whatever it is waiting on, a virtual one (ServePipes)
	// all of them before its join. Each one's first frame must be MsgJoin;
	// the first round boundary after it is handled re-admits the client into
	// a previously evicted slot (honoring the ClientID slot hint in its join
	// when that slot is free), and it receives the current global model with
	// its first MsgAssign. Its δ row — kept stale since eviction — is
	// refreshed at its next δ sync. In a live session a client that never
	// sends its join holds up nothing and is closed when the session ends.
	Rejoin <-chan Conn
	// CheckpointPath, if non-empty, makes the server write an atomic
	// round checkpoint (global params, δ table + ages, loss history,
	// round index) after every round, so a killed session can resume via
	// Resume.
	CheckpointPath string
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
	// Tracer, when non-nil, records identified spans as JSONL span lines:
	// session → join/round → phase → per-client, with the round
	// span's context stamped into MsgAssign/MsgDeltaReq frame headers so
	// client-side spans stitch into the same tree.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, receives one training-dynamics line per round
	// attempt: round loss, per-client losses and update norms, the pairwise
	// MMD matrix of the δ table (rFedAvg+), δ-row ages, evictions/rejoins,
	// and the attempt's wire bytes in each direction — and one line per
	// lifecycle event (evict, rejoin, retry, checkpoint, resume).
	Ledger *telemetry.RunLedger
	// Health, when non-nil, receives per-round health observations: every
	// validated update, async folds, δ drift, and evictions. Scores and
	// the round verdict land in the ledger and on the monitor's own
	// rfl_health_* metrics and /debug/fl/health snapshot.
	Health *health.Monitor

	// clock is a ServePipes session's virtual time (a test may bring its own,
	// to read it or to make rejoiners' pipes on it): its arrivals and
	// deadlines are handled in stamp order.
	clock *time.Duration
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
	// UpBytes and DownBytes are the session's metered frames (headers
	// included) received from and sent to the clients, MsgDone too: this
	// session's share of rfl_bytes_received_total/rfl_bytes_sent_total.
	UpBytes, DownBytes int64
}

// session is the mutable state of one Serve call. It is the goroutine of
// Serve, dispatching the inbox, that mutates it; the IO pool's sends only
// read it and write their own slot of the scratch, so no locking is needed.
type session struct {
	cfg        ServerConfig
	minClients int
	conns      []*peer
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
	// phases times the join, every round attempt and its phases, checkpoints.
	phases telemetry.Phases
	// rec is the reused ledger record; its slices are refilled each round
	// attempt so steady-state capture allocates nothing.
	rec telemetry.RoundRecord
	att attempt // the round attempt in progress
	// lastRejoins and lastEvictions attribute what happened at the round
	// boundary (rejoins, dead peers reaped) to the following attempt's ledger
	// record.
	lastRejoins, lastEvictions int
	// pending holds the rejoiners taken off cfg.Rejoin and not yet placed:
	// silent ones, whose handshake has not arrived, and handshaked ones that
	// arrived before their crashed predecessor's eviction surfaced. Every
	// round boundary places the handshaked ones into free slots.
	pending []*peer

	// inbox carries every peer's frames from its pump to the dispatcher. It
	// holds one frame per slot: a client answers one request at a time, so a
	// round's answers never wait on a dispatcher busy elsewhere. done, closed
	// when Serve returns, stops the pumps pushing; a pump ends when its conn
	// fails, which the conn's owner's Close brings about. coll is the
	// gather in progress. round is the round events belong to when they are
	// handled: the round being attempted until it closes, then the next one —
	// the fold a late update is parked for, and the round an eviction outside
	// a gather is recorded under.
	inbox chan arrival
	done  chan struct{}
	coll  gathering
	round int
	// ahead holds the arrivals taken off the inbox and not handled yet (see
	// dispatch). start is a virtual session's clock when the phase in
	// progress began, and expire, set until that phase ends, ends its context
	// at its deadline (phaseCtx).
	ahead  []arrival
	start  time.Duration
	expire context.CancelFunc

	// Async-mode state. buffered[i] is a parked late update awaiting its
	// fold. updAges tracks rounds since each slot's last aggregated update;
	// ctrl is the adaptive deadline controller (nil unless enabled).
	buffered []*BufferedUpdate
	updAges  *core.AgeTrack
	ctrl     *deadlineController

	// ioErrs and ioMsgs are the network phases' scratch: per-slot results
	// written at a member's own index — by the IO pool's sends, by collect's
	// deliveries — and cleared as the phase reads them.
	ioErrs []error
	ioMsgs []*Message
	// out[j] is the outgoing frame of a broadcast's j-th member, reused by
	// every broadcast: a send is over when it returns.
	out []frame

	// ck is the checkpoint view session.checkpoint refills and ckImage its
	// encoded bytes, both reused from one checkpoint to the next.
	ck      Checkpoint
	ckImage []byte
}

// frame is one outgoing broadcast frame and the δ target buffer an assign's
// Delta points into, refilled by MeanExcludingInto.
type frame struct {
	m      Message
	target []float64
}

// attempt is what one round attempt's phases hand each other; the session
// reuses its slices. fresh holds the validated updates — views of their
// frames, cleared with them — and late the parked ones folded in; delivered
// marks the slots whose update the round aggregates; whole says the cohort is
// the whole population, the only case a hold starts in (engine.Held).
type attempt struct {
	round       int
	ctx         telemetry.SpanContext  // the round span
	rec         *telemetry.RoundRecord // nil without a ledger
	detail      bool                   // engine.Detail
	cohort      []bool
	whole       bool
	members     []int // the slots the network phase in progress touches
	updates     []*Message
	fresh, late []engine.Update
	delivered   []bool
	loss        float64
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
	if s.cfg.BufferK > 0 && sl.upd != compress.SchemeDense {
		copy(resizeFloats(&sl.ref, len(ref)), ref)
	}
}

// maxRoundRetries caps consecutive failed attempts of one round before the
// session aborts.
const maxRoundRetries = 2

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
// that ends below the MinClients quorum is retried up to maxRoundRetries
// times before the session aborts. Evicted clients may reconnect through
// cfg.Rejoin and are re-admitted at the next round boundary.
//
// A send still in flight at its phase's deadline ends by closing its conn, so
// every Conn's Close must unblock its Send in progress: one that does not
// stalls the session past RoundDeadline.
func Serve(cfg ServerConfig, conns []Conn) (*ServerResult, error) {
	return new(session).serve(cfg, conns)
}

// serve is Serve on a session the caller can look into afterwards.
func (s *session) serve(cfg ServerConfig, conns []Conn) (_ *ServerResult, err error) {
	if err := s.setup(cfg, conns); err != nil {
		return nil, err
	}
	// run_start and run_done bracket the session in the observer stream, as
	// they bracket fl.Run's, so a follower knows when it has read everything.
	// run_done follows the MsgDone phase; an aborted session's names the error.
	cfg.Ledger.Emit("run_start", -1, string(cfg.Algorithm))
	defer func() {
		detail := string(cfg.Algorithm)
		if err != nil {
			detail = err.Error()
		}
		cfg.Ledger.Emit("run_done", cfg.Rounds-1, detail)
	}()
	defer close(s.done)
	// The session root span: every round attempt and checkpoint parents to
	// it, making the trace ID the session's identity across processes.
	sessSpan := cfg.Tracer.Start("session", telemetry.SpanContext{})
	defer sessSpan.End()
	s.sessCtx = sessSpan.Context()

	// Join phase: collect shard sizes; a client that fails its join is
	// evicted rather than aborting everyone else's session.
	s.phases.Time(telemetry.PhaseJoin, s.sessCtx, -1, func(telemetry.SpanContext) { err = s.join() })
	if err != nil {
		return nil, err
	}
	s.lastEvictions = len(s.res.Evictions) // join failures belong to no round

	startRound := 0
	if cfg.Resume != nil {
		if startRound, err = s.restore(cfg.Resume); err != nil {
			return nil, err
		}
		s.event("resume", startRound, cfg.CheckpointPath)
	}
	if err := s.runRounds(startRound); err != nil {
		return nil, err
	}

	// Session end: best-effort MsgDone, one frame every send reads. A dead
	// client here must not fail a session whose training already succeeded.
	s.closePending()
	done := &Message{Type: MsgDone, Params: s.global}
	ctx, cancel := s.phaseCtx()
	s.sendPhase(ctx, len(s.conns), func(i int) {
		if !s.active[i] {
			return
		}
		if err := s.conns[i].send(ctx, done); err != nil {
			s.logf("done to client %d failed (ignored): %v", i, err)
		}
	})
	cancel()
	s.res.FinalParams = s.global
	s.res.UpBytes, s.res.DownBytes = s.metrics.recv.Load(), s.metrics.sent.Load()
	return s.res, nil
}

// setup checks cfg and resets the session to serve it over conns.
func (s *session) setup(cfg ServerConfig, conns []Conn) error {
	if len(conns) == 0 {
		return fmt.Errorf("transport: no clients")
	}
	if cfg.Rounds <= 0 {
		return fmt.Errorf("transport: non-positive rounds %d", cfg.Rounds)
	}
	switch cfg.Algorithm {
	case AlgoFedAvg:
	case AlgoRFedAvgPlus:
		if cfg.FeatureDim <= 0 {
			return fmt.Errorf("transport: rfedavg+ requires FeatureDim")
		}
	default:
		return fmt.Errorf("transport: unknown algorithm %q (want %q or %q)", cfg.Algorithm, AlgoFedAvg, AlgoRFedAvgPlus)
	}
	if cfg.AdaptiveDeadline && cfg.RoundDeadline <= 0 {
		return fmt.Errorf("transport: adaptive deadline requires a positive RoundDeadline to start from")
	}
	n := len(conns)
	*s = session{
		cfg:        cfg,
		minClients: max(cfg.MinClients, 1),
		conns:      make([]*peer, n),
		active:     make([]bool, n),
		samples:    make([]float64, n),
		held:       make(engine.Held, n),
		ioErrs:     make([]error, n),
		ioMsgs:     make([]*Message, n),
		global:     append([]float64(nil), cfg.InitialParams...),
		table:      core.NewServerTable(n, max(cfg.FeatureDim, 1), cfg.MaxStaleness),
		res:        &ServerResult{},
		metrics:    newServerMetrics(cfg.Metrics, cfg.Algorithm),
		buffered:   make([]*BufferedUpdate, n),
		inbox:      make(chan arrival, n),
		done:       make(chan struct{}),
		updAges:    core.NewAgeTrack(n),
	}
	s.codec.init(cfg.Codec, cfg.Seed, n)
	if cfg.AdaptiveDeadline {
		s.ctrl = newDeadlineController(n, cfg.RoundDeadline, cfg.RoundDeadline/8, cfg.RoundDeadline, s.metrics)
	}
	s.phases = telemetry.Phases{Tracer: cfg.Tracer, Hist: &s.metrics.phaseSec}
	if cfg.Ledger != nil {
		s.phases.Rec = &s.rec
	}
	s.att = attempt{rec: s.phases.Rec, detail: engine.Detail(n), delivered: make([]bool, n)}
	for i, c := range conns {
		s.conns[i] = s.wrap(c, i)
		s.active[i] = true
	}
	if cfg.clock != nil && cfg.Rejoin != nil { // a virtual session's rejoiners are an input
		for c := range cfg.Rejoin {
			s.pending = append(s.pending, s.wrap(c, -1))
		}
		s.cfg.Rejoin = nil
	}
	return nil
}

// runRounds runs rounds startRound.. to cfg.Rounds, retrying a failed attempt
// up to maxRoundRetries times, and checkpoints every round boundary.
func (s *session) runRounds(startRound int) error {
	attempts := 0
	for round := startRound; round < s.cfg.Rounds; {
		s.boundary(round)
		ok := count(s.active) >= s.minClients || s.waitForQuorum()
		if ok {
			ok = s.runRound(round, attempts+1)
		}
		if !ok {
			attempts++
			s.res.RetriedRounds++
			s.metrics.retries.Inc()
			s.event("retry", round, s.lastFaultOr(""))
			if attempts > maxRoundRetries {
				s.checkpoint(round) // leave a resumable state behind
				s.closePending()
				return fmt.Errorf("transport: round %d failed after %d attempts (last fault: %s)",
					round, attempts, s.lastFaultOr("none"))
			}
			continue
		}
		attempts = 0
		round++
		s.checkpoint(round)
	}
	return nil
}

func (s *session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// event records a lifecycle event: a ledger line, and a line of the human log.
func (s *session) event(name string, round int, detail string) {
	s.cfg.Ledger.Emit(name, round, detail)
	if s.cfg.Logf != nil {
		s.cfg.Logf("%s (round %d): %s", name, round, detail)
	}
}

func (s *session) lastFaultOr(fallback string) string {
	if s.lastFault == "" {
		return fallback
	}
	return s.lastFault
}

// count reports how many entries of mask are set.
func count(mask []bool) (n int) {
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// evict removes client i from the session: its connection is closed, which
// ends its pump, and its aggregation weight stops counting. Its δ row stays
// in the table — stale — so the regularization targets degrade gracefully
// and a rejoin resumes from the last known map.
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
	s.event("evict", round, s.lastFault)
}

// join collects the MsgJoin handshake of every initial client; a client
// that fails its join is evicted rather than aborting everyone else's
// session.
func (s *session) join() error {
	all := make([]int, len(s.conns))
	for i := range all {
		all[i] = i
	}
	ctx, cancel := s.phaseCtx()
	defer cancel()
	for i, m := range s.collect(ctx, MsgJoin, -1, all, len(all), telemetry.SpanContext{}) {
		if m != nil {
			s.samples[i] = float64(m.NumSamples)
			s.codec.negotiate(i, m.Caps)
		}
	}
	if count(s.active) == 0 {
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
	var err error
	s.phases.Time(telemetry.PhaseCheckpoint, s.sessCtx, nextRound, func(telemetry.SpanContext) {
		if s.ckImage, err = ck.appendTo(s.ckImage[:0]); err == nil {
			err = saveImage(s.cfg.CheckpointPath, s.ckImage)
		}
	})
	if err != nil {
		s.logf("checkpoint at round %d failed (ignored): %v", nextRound, err)
		return
	}
	s.metrics.checkpoints.Inc()
	s.event("checkpoint", nextRound, s.cfg.CheckpointPath)
}

// place re-admits a handshaked rejoiner into an evicted slot — the slot its
// join hints at if that one is free, else the lowest evicted slot. The slot
// keeps its (stale) δ row, so the client resumes exactly where the
// δ-staleness fallback left it. With every slot still active it reports
// false: the rejoiner stays pending for the next boundary.
func (s *session) place(p *peer) bool {
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
		return false
	}
	p.slot = slot
	s.conns[slot] = p
	s.active[slot] = true
	s.held.Drop(slot)
	s.samples[slot] = float64(p.join.NumSamples)
	s.codec.negotiate(slot, p.join.Caps)
	s.res.Rejoins++
	s.metrics.rejoins.Inc()
	s.event("rejoin", -1, fmt.Sprintf("slot %d", slot))
	return true
}

// runRound runs one round attempt as the round phase, whose span parents
// every phase and (via the frame headers) the client-side spans, and writes
// the attempt's ledger record — for failed attempts too (ok=false,
// loss=null), so the ledger shows retries rather than silently eliding them.
func (s *session) runRound(round, attempt int) bool {
	rec := &s.rec
	rec.Reset()
	rec.Algo, rec.Round, rec.Attempt, rec.Loss = string(s.cfg.Algorithm), round, attempt, math.NaN()
	sentBefore, recvBefore := s.metrics.sent.Load(), s.metrics.recv.Load()
	elidedBefore := s.metrics.nElided.Load()

	ok := false
	s.phases.Time(telemetry.PhaseRound, s.sessCtx, round, func(ctx telemetry.SpanContext) { ok = s.attemptRound(round, ctx) })
	if s.cfg.Ledger != nil {
		rec.OK = ok
		rec.DownBytes = s.metrics.sent.Load() - sentBefore
		rec.UpBytes = s.metrics.recv.Load() - recvBefore
		rec.Elided = int(s.metrics.nElided.Load() - elidedBefore)
		for _, ev := range s.res.Evictions[s.lastEvictions:] {
			rec.Evicted = append(rec.Evicted, ev.Client)
		}
		rec.Rejoins = s.res.Rejoins - s.lastRejoins
		s.cfg.Ledger.Record(rec)
	}
	s.lastRejoins, s.lastEvictions = s.res.Rejoins, len(s.res.Evictions)
	return ok
}

// attemptRound attempts one round over the active clients as the list of its
// phases (Alg. 2). It returns false — leaving the global model untouched —
// when fewer than MinClients valid updates arrive (satisfying quorum is the
// caller's retry loop's job). Faulty clients are evicted along the way.
func (s *session) attemptRound(round int, roundCtx telemetry.SpanContext) bool {
	a := &s.att
	a.round, a.ctx = round, roundCtx
	defer func() { // the round's frames, and the views of them, must not outlive it
		clear(s.ioMsgs)
		clear(a.fresh)
		a.updates, a.late = nil, nil
	}()
	s.phase(telemetry.PhasePrepare, s.prepare)
	// Sync #1: assign and gather share one deadline.
	ctx, cancel := s.phaseCtx()
	s.phase(telemetry.PhaseBroadcast, func(telemetry.SpanContext) { s.broadcast(ctx) })
	s.phase(telemetry.PhaseGather, func(sp telemetry.SpanContext) { s.gather(ctx, sp) })
	cancel()
	s.phase(telemetry.PhaseValidate, s.validate)
	if len(a.fresh)+len(a.late) < s.minClients {
		return false
	}
	ok := false
	s.phase(telemetry.PhaseClose, func(telemetry.SpanContext) { ok = s.closeRound() })
	if !ok {
		return false
	}
	if s.cfg.Algorithm == AlgoRFedAvgPlus {
		s.phase(telemetry.PhaseDeltaSync, s.deltaSync)
	}
	s.phase(telemetry.PhaseAge, s.age)
	return true
}

// phase times, traces and ledgers one phase of the attempt in progress under
// the round span; run gets the phase span's context for spans of its own.
func (s *session) phase(p telemetry.Phase, run func(telemetry.SpanContext)) {
	s.phases.Time(p, s.att.ctx, s.att.round, run)
}

// prepare samples the attempt's cohort. A buffered session first waits (if
// needed) until assignable + parked slots can reach quorum, and samples only
// from slots with no update in flight or parked. The cohort RNG is
// re-derived from (Seed, round) at every attempt: a resumed server samples
// the same cohorts at round r as one that never died, and a retried attempt
// re-samples the same cohort instead of perturbing every later round.
func (s *session) prepare(telemetry.SpanContext) {
	a := &s.att
	population := s.active
	if s.cfg.BufferK > 0 {
		s.awaitAvail()
		population = s.asyncEligible()
	}
	if d := s.curDeadline(); a.rec != nil && d > 0 {
		a.rec.DeadlineSec = d.Seconds()
	}
	sampled := engine.Sample(cohortRNG(s.cfg.Seed, a.round), population, s.cfg.SampleRatio, s.minClients)
	a.cohort, a.whole = make([]bool, len(population)), len(sampled) == count(population)
	for _, i := range sampled {
		a.cohort[i] = true
	}
}

// broadcast assigns work to the cohort; everyone else hears nothing. Assign
// frames carry the round span's context so client-side spans join the tree.
func (s *session) broadcast(ctx context.Context) {
	a := &s.att
	s.membersOf(a.cohort)
	s.shareBroadcast(a.round)
	s.broadcastActive(ctx, func(i int, f *frame) {
		sl := s.codec.slot(i)
		m := &f.m
		m.Type, m.Round, m.ClientID, m.Want = MsgAssign, int32(a.round), int32(i), sl.upd
		// The client still holds this model from last round's MsgDeltaReq:
		// ship it once.
		if s.held.Assign(i, a.round) {
			s.metrics.elide()
		} else {
			s.modelPayload(m, i, a.round)
		}
		if s.cfg.Algorithm == AlgoRFedAvgPlus {
			target := s.table.MeanExcludingInto(resizeFloats(&f.target, s.table.Dim), i)
			if ds := sl.delta; ds != compress.SchemeDense && len(target) > 0 {
				// Salted one stride past the model encode's stream (modelPayload).
				m.PDelta = packVec(&sl.targetBuf, ds, target, compress.RNGFor(ds, s.cfg.Seed, a.round, i+2*s.codec.n), nil, nil)
			} else {
				m.Delta = target
			}
		}
	})
}

// gather receives the cohort's updates, each wait a gather_client span under
// sp. A buffered session closes the gather at BufferK fresh updates, raised so
// that fresh + parked folds can still reach quorum and capped at the cohort
// (a BufferK of at least the cohort waits for all of it: async plumbing,
// synchronous semantics).
func (s *session) gather(ctx context.Context, sp telemetry.SpanContext) {
	a := &s.att
	k := len(a.members)
	if s.cfg.BufferK > 0 {
		k = min(max(s.cfg.BufferK, s.minClients-s.bufferedCount()), k)
	}
	a.updates = s.collect(ctx, MsgUpdate, a.round, a.members, k, sp)
}

// validate decodes (decodeUpdate) and validates the gathered updates, evicting
// the senders of bad ones, and takes the parked late updates, validated at
// park time, that fold into this aggregation with their staleness discount.
func (s *session) validate(telemetry.SpanContext) {
	a := &s.att
	clear(a.delivered)
	a.fresh = a.fresh[:0]
	staged := 0
	for i, m := range a.updates {
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
			s.evict(i, a.round, err.Error())
			continue
		}
		if a.rec != nil && a.rec.UpScheme == "" {
			if m.PParams.N > 0 {
				a.rec.UpScheme = m.PParams.Scheme.String()
			} else if len(params) > 0 {
				a.rec.UpScheme = compress.SchemeDense.String()
			}
		}
		u := engine.Update{Client: i, Samples: s.samples[i], Loss: m.Loss, Params: params}
		if err := engine.Validate(u, len(s.global)); err != nil {
			s.evict(i, a.round, err.Error())
			continue
		}
		a.delivered[i] = true
		a.fresh = append(a.fresh, u)
	}
	if s.cfg.BufferK > 0 {
		a.late = s.folds(a.round)
	}
}

// closeRound aggregates the fresh and late updates into the next global model
// (engine.Close) while s.global is still the model the clients trained from.
// It reports false when the effective cohort is empty.
func (s *session) closeRound() bool {
	a := &s.att
	next := make([]float64, len(s.global))
	loss, ok := engine.Close(s.cfg.Health, a.rec, a.detail, a.round, s.global, next, a.fresh, a.late, s.cfg.StalenessLambda)
	if !ok {
		s.lastFault = "empty effective cohort (wsum = 0)"
		return false
	}
	// Nothing reads the fresh updates after Close: a pipe-delivered one goes
	// back to the float pool, before the δ sync's collect reuses s.ioMsgs.
	for j := range a.fresh {
		if m := a.updates[a.fresh[j].Client]; m.pooled {
			tensor.PutFloats(m.Params)
			m.Params, m.pooled = nil, false
		}
		a.fresh[j].Params = nil
	}
	for _, u := range a.late {
		// A folded client is idle again: it joins the second synchronization
		// (rFedAvg+), refreshing the δ row its lateness let go stale.
		a.delivered[u.Client] = true
		s.buffered[u.Client] = nil
		s.metrics.lateFolds.Inc()
		lf := s.cfg.Tracer.Start("late_fold", a.ctx)
		lf.Round, lf.Client = a.round, u.Client
		lf.End()
		s.logf("folded client %d's round-%d update into round %d (age %d, weight %.3f)",
			u.Client, a.round-u.Age, a.round, u.Age, engine.StalenessWeight(u.Age, s.cfg.StalenessLambda))
	}
	s.metrics.buffered.Set(float64(s.bufferedCount()))
	s.global = next
	s.round = a.round + 1
	s.res.RoundLosses = append(s.res.RoundLosses, loss)
	a.loss = loss
	if a.rec != nil {
		a.rec.Loss = loss
	}
	return true
}

// deltaSync is rFedAvg+'s second synchronization: it ships the new global
// model to the clients the round aggregated and gathers their δ maps, each
// wait a delta_client span under sp. A client lost here keeps its previous
// (now stale) row — the δ-staleness fallback — instead of failing the round.
func (s *session) deltaSync(sp telemetry.SpanContext) {
	a := &s.att
	ctx, cancel := s.phaseCtx()
	defer cancel()
	s.membersOf(a.delivered)
	s.shareBroadcast(a.round + 1)
	s.broadcastActive(ctx, func(i int, f *frame) {
		m := &f.m
		m.Type, m.Round, m.ClientID, m.Want = MsgDeltaReq, int32(a.round), int32(i), s.codec.slot(i).delta
		s.modelPayload(m, i, a.round+1)
		if a.whole {
			s.held.Hold(i, a.round+1)
		}
	})
	for i, m := range s.collect(ctx, MsgDelta, a.round, a.members, len(a.members), sp) {
		if m == nil {
			continue
		}
		if m.PDelta.N > 0 {
			if int(m.PDelta.N) != s.cfg.FeatureDim {
				s.evict(i, a.round, fmt.Sprintf("sent packed δ of %d dims, want %d", m.PDelta.N, s.cfg.FeatureDim))
				continue
			}
			dec := resizeFloats(&s.codec.slot(i).deltaDec, s.cfg.FeatureDim)
			if err := compress.DecodeInto(dec, m.PDelta.Scheme, m.PDelta.Data); err != nil {
				s.evict(i, a.round, fmt.Sprintf("packed δ: %v", err))
				continue
			}
			m.Delta = dec
		}
		if err := s.table.Accept(i, m.Delta); err != nil {
			s.evict(i, a.round, err.Error())
		}
	}
	s.table.ObserveDrift(s.cfg.Health)
}

// age closes a successful round: the δ table ages once for both algorithms
// (MaxStaleness bounds plain FedAvg sessions too), the update tracks reset
// for contributors and age, the adaptive deadline retargets from the round's
// client latencies, and the ledger's δ blocks and the health verdict close.
func (s *session) age(telemetry.SpanContext) {
	a := &s.att
	s.table.Tick()
	s.metrics.observeDeltaAges(s.table, s.cfg.MaxStaleness)
	// Contributors (fresh and folded) reset to 0, then everyone ages one
	// round — the ages a checkpoint persists.
	for i, d := range a.delivered {
		if d {
			s.updAges.Reset(i)
		}
	}
	s.updAges.Tick()
	s.metrics.observeUpdateAges(s.updAges)
	if s.ctrl != nil {
		s.ctrl.update()
	}
	if a.rec != nil {
		if s.cfg.Algorithm == AlgoRFedAvgPlus {
			engine.LedgerMMD(a.rec, a.detail, s.table, s.table.N)
		}
		engine.LedgerAges(a.rec, a.detail, s.table, s.table.N)
	}
	engine.EndRound(s.cfg.Health, a.rec, a.detail, a.loss)
	s.res.Cohorts = append(s.res.Cohorts, RoundCohort{Round: a.round, Mask: a.cohort})
	s.metrics.rounds.Inc()
}

// cohortRNG derives the round's cohort-sampling stream from (seed, round)
// alone, so resumed sessions and retried round attempts reproduce the exact
// cohort an uninterrupted run would sample (same mixing constants as
// fl.roundRNG).
func cohortRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)*7919 + 17))
}

// membersOf lists the active slots marked in mask, in slot order, as the
// attempt's members — the only slots a network phase touches.
func (s *session) membersOf(mask []bool) {
	a := &s.att
	a.members = a.members[:0]
	for i, in := range mask {
		if in && s.active[i] {
			a.members = append(a.members, i)
		}
	}
}

// broadcastActive sends every member the frame fill(i, f) writes into f.m,
// over the bounded IO pool of sendPhase — the one network fan-out left:
// receiving is the pumps' and the dispatcher's — stamping the round span's
// context onto each frame; clients whose send fails are evicted (serially, in
// slot order, after the pool drains). Each frame is zeroed once sent, so that
// none keeps the model it carried alive.
func (s *session) broadcastActive(ctx context.Context, fill func(i int, f *frame)) {
	a := &s.att
	if n := len(a.members); len(s.out) < n {
		s.out = append(s.out, make([]frame, n-len(s.out))...)
	}
	s.sendPhase(ctx, len(a.members), func(j int) {
		i, f := a.members[j], &s.out[j]
		fill(i, f)
		f.m.setSpanContext(a.ctx)
		s.ioErrs[i] = s.conns[i].send(ctx, &f.m)
		f.m = Message{}
	})
	for _, i := range a.members {
		if err := s.ioErrs[i]; err != nil {
			s.ioErrs[i] = nil
			s.evict(i, a.round, fmt.Sprintf("broadcast: %v", err))
		}
	}
}

// sendPhase runs send(j) for every j in [0, n) on the IO pool under one
// watchdog for ctx's deadline: when it fires, every peer with a send in
// flight is abandoned — its conn closed, which ends the send — so no send
// outlives the phase. With no deadline the watchdog never fires.
func (s *session) sendPhase(ctx context.Context, n int, send func(j int)) {
	var watching sync.WaitGroup
	watching.Add(1)
	stop := context.AfterFunc(ctx, func() {
		defer watching.Done()
		for _, p := range s.conns {
			p.abandon()
		}
	})
	ioParallel(n, ioWorkers(), send)
	if stop() {
		watching.Done()
	}
	watching.Wait() // a watchdog already running reads s.conns
}
