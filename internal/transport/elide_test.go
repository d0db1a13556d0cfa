package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// Tests for the held-model rule: each global model crosses a connection once.
// MsgDeltaReq(r) carries model version r+1, so MsgAssign(r+1) to the same
// connection omits it; everything that breaks the chain (round 0, resume,
// retry, rejoin, a round sat out) gets the full model. Holds start only in
// rounds whose cohort was the whole population.

var updateGolden = flag.Bool("update-golden-sessions", false,
	"rewrite testdata/golden_sessions.json (run on the commit the sessions must stay equal to)")

// elideRun describes one pipe session on the shared fixture, in virtual time
// when shape sets the clock.
type elideRun struct {
	algo   Algorithm
	shape  func(*ServerConfig)
	client func(i int, cfg *ClientConfig) // optional per-client config edit
	server func(i int, c Conn) Conn       // optional server-side conn wrapper
	dial   func(i int, c Conn) Conn       // optional client-side conn wrapper
	plans  map[int]FaultPlan              // client-side fault plans
	// mayFail lists client slots whose RunClient is expected to error.
	mayFail map[int]bool
	// sess and codecs, when set, are the session and the per-client codecs the
	// run uses, for the caller to look into afterwards.
	sess   *session
	codecs []*clientCodec
}

func (r elideRun) run(t *testing.T, fx *federatedFixture) *ServerResult {
	t.Helper()
	clients := len(fx.shards)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     r.algo,
		Rounds:        6,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Seed:          5,
		Metrics:       telemetry.NewRegistry(),
	}
	if r.shape != nil {
		r.shape(&scfg)
	}
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	pipe := Pipe
	if scfg.clock != nil {
		pipe = func() (Conn, Conn) { return newPipe(scfg.clock) }
	}
	for i := range serverConns {
		serverConns[i], clientConns[i] = pipe()
		if r.server != nil {
			serverConns[i] = r.server(i, serverConns[i])
		}
		if r.dial != nil {
			clientConns[i] = r.dial(i, clientConns[i])
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(100 + i)
			if r.client != nil {
				r.client(i, &cfg)
			}
			conn := clientConns[i]
			if plan, ok := r.plans[i]; ok {
				conn = NewFaultConn(conn, plan)
			}
			cc := new(clientCodec)
			if r.codecs != nil {
				cc = r.codecs[i]
			}
			if _, err := runClient(conn, fx.shards[i], cfg, cc); err != nil && !r.mayFail[i] {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	sess := r.sess
	if sess == nil {
		sess = new(session)
	}
	res, err := sess.serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	return res
}

// sentFrame is one server→client frame as a frameLog saw it.
type sentFrame struct {
	typ      MsgType
	round    int
	slot     int
	bytes    int
	hasModel bool
}

// frameLog records every frame the server sends, across all slots.
type frameLog struct {
	mu     sync.Mutex
	frames []sentFrame
}

type loggedConn struct {
	Conn
	log  *frameLog
	slot int
}

func (l *frameLog) wrap(i int, c Conn) Conn { return &loggedConn{Conn: c, log: l, slot: i} }

func (c *loggedConn) Send(m *Message) error {
	c.log.mu.Lock()
	c.log.frames = append(c.log.frames, sentFrame{
		typ: m.Type, round: int(m.Round), slot: c.slot, bytes: m.EncodedSize(),
		hasModel: len(m.Params) > 0 || m.PParams.N > 0,
	})
	c.log.mu.Unlock()
	return c.Conn.Send(m)
}

// downBytes sums the round's server→client bytes (MsgDone carries no round).
func (l *frameLog) downBytes(round int) int {
	n := 0
	for _, f := range l.frames {
		if f.round == round && f.typ != MsgDone {
			n += f.bytes
		}
	}
	return n
}

// assigns returns the MsgAssign frames of one round, in send order per slot.
func (l *frameLog) assigns(round int) []sentFrame {
	var out []sentFrame
	for _, f := range l.frames {
		if f.typ == MsgAssign && f.round == round {
			out = append(out, f)
		}
	}
	return out
}

func hashFloats(v []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRuns are the fixed-seed sessions whose outputs must stay equal to
// the bit: dense with a 3-of-4 cohort (full assigns only), dense with the
// whole fleet (elided assigns from round 1 on — the benchmark's dense fleet),
// the benchmark's f32-broadcast + q8-uplink + error-feedback shape,
// buffered async with packed updates diff-coded against a dense broadcast,
// and the f32/q8 policy with one dense-only client beside three that take it
// (recorded while every slot still got its own encode of the broadcast).
var goldenRuns = map[string]elideRun{
	"dense":      {algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) { c.SampleRatio = 0.75 }},
	"dense-full": {algo: AlgoRFedAvgPlus},
	"f32-q8-ef": {algo: AlgoRFedAvgPlus,
		shape: func(c *ServerConfig) {
			c.Codec = CodecPolicy{Broadcast: compress.SchemeF32, Update: compress.SchemeInt8, Delta: compress.SchemeInt8}
		},
		client: func(_ int, cfg *ClientConfig) { cfg.ErrorFeedback = true }},
	"async": {algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) {
		c.BufferK, c.SampleRatio, c.StalenessLambda = 4, 0.5, 0.5
		c.Codec = CodecPolicy{Update: compress.SchemeInt8}
	}},
	"mixed-caps": {algo: AlgoRFedAvgPlus,
		shape: func(c *ServerConfig) {
			c.Codec = CodecPolicy{Broadcast: compress.SchemeF32, Update: compress.SchemeInt8, Delta: compress.SchemeInt8}
		},
		client: func(i int, cfg *ClientConfig) {
			if i == 0 {
				cfg.Caps = compress.CapsOf() // dense only
			}
		}},
}

type goldenSession struct {
	Losses string `json:"losses"`
	Params string `json:"params"`
}

type goldenFile struct {
	// Probe hashes one client's local training on this host's float kernels;
	// the session hashes only mean something where it matches.
	Probe    string                   `json:"probe"`
	Sessions map[string]goldenSession `json:"sessions"`
}

func kernelProbe(fx *federatedFixture) string {
	tr := engine.Trainer{Net: fx.builder(fx.ccfg.ModelSeed), Opt: opt.NewSGD(), Arena: nn.NewArena()}
	tr.Steps(fx.shards[0], rand.New(rand.NewSource(1)), engine.LocalSteps{
		E: fx.ccfg.LocalSteps, B: fx.ccfg.BatchSize, LR: fx.ccfg.LR.LR}, telemetry.ActiveSpan{})
	return hashFloats(tr.Net.GetFlat())
}

// The sessions in testdata/golden_sessions.json were recorded on the parent
// of the change that introduced elision: training through elided assigns is
// bit-identical to training through full ones.
func TestElideGoldenSessions(t *testing.T) {
	const path = "testdata/golden_sessions.json"
	fx := newFixture(t, 4)
	got := goldenFile{Probe: kernelProbe(fx), Sessions: map[string]goldenSession{}}
	for name, r := range goldenRuns {
		res := r.run(t, fx)
		got.Sessions[name] = goldenSession{Losses: hashFloats(res.RoundLosses), Params: hashFloats(res.FinalParams)}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if got.Probe != want.Probe {
		t.Skipf("float kernels differ from the recording host (probe %s, recorded %s)", got.Probe, want.Probe)
	}
	for name, w := range want.Sessions {
		if g := got.Sessions[name]; g != w {
			t.Errorf("session %q drifted: got %+v, want %+v", name, g, w)
		}
	}
}

// From round 1 on, rFedAvg+ costs exactly one header and one δ target per
// client on the downlink over FedAvg — Table III's O(dN) — and round 0 one
// more model each.
func TestElideByteLaw(t *testing.T) {
	const rounds = 5
	fx := newFixture(t, 4)
	net := fx.builder(fx.ccfg.ModelSeed)
	n, p, d := len(fx.shards), net.NumParams(), net.FeatureDim
	down := func(algo Algorithm) *frameLog {
		var log frameLog
		elideRun{algo: algo, shape: func(c *ServerConfig) { c.Rounds = rounds }, server: log.wrap}.run(t, fx)
		return &log
	}
	plus, avg := down(AlgoRFedAvgPlus), down(AlgoFedAvg)
	header := (&Message{}).EncodedSize()
	for r := 0; r < rounds; r++ {
		want := n * (header + 8*d)
		if r == 0 {
			want += n * 8 * p
		}
		if got := plus.downBytes(r) - avg.downBytes(r); got != want {
			t.Errorf("round %d: rFedAvg+ − FedAvg down bytes = %d, want %d", r, got, want)
		}
	}
}

// Under cohort sampling which clients sit in two consecutive cohorts is a
// draw of the seed, so a hold starts only in a round that sampled nobody out:
// every assign of a sampled session carries the model, overlap or not, and
// bytes per round depend on the configuration alone.
func TestElideOnlyAfterWholeFleetRound(t *testing.T) {
	var log frameLog
	fx := newFixture(t, 4)
	res := elideRun{algo: AlgoRFedAvgPlus, server: log.wrap,
		shape: func(c *ServerConfig) { c.SampleRatio, c.Rounds = 0.5, 8 }}.run(t, fx)
	overlap := 0
	for r, co := range res.Cohorts {
		for _, f := range log.assigns(r) {
			if !co.Mask[f.slot] || !f.hasModel {
				t.Errorf("round %d slot %d: assign in cohort=%v hasModel=%v", r, f.slot, co.Mask[f.slot], f.hasModel)
			}
			if r > 0 && res.Cohorts[r-1].Mask[f.slot] {
				overlap++
			}
		}
		if r > 0 && log.downBytes(r) != log.downBytes(0) {
			t.Errorf("round %d: %d down bytes, round 0 had %d", r, log.downBytes(r), log.downBytes(0))
		}
	}
	if overlap == 0 {
		t.Fatal("vacuous: no client was in two consecutive cohorts")
	}
}

// A failed attempt is retried with full models, and a rejoined slot gets one.
func TestElideRetryAndRejoinGetFullModel(t *testing.T) {
	const clients = 3
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	var ledger bytes.Buffer
	scfg := ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: 4, MinClients: clients, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
		RoundDeadline: 20 * time.Second, Ledger: telemetry.NewRunLedger(&ledger), Metrics: telemetry.NewRegistry(),
	}
	// Slot 2's second life, re-admitted for the retry of round 1.
	cfg := fx.client(2)
	cfg.ClientID = 2
	second := rejoiner(&scfg, fx.shards[2], cfg, FaultPlan{})
	// Slot 2's first life: join, assign 0, update 0, δ-req 0, δ 0, assign 1 —
	// then it crashes sending its round-1 update.
	plans := map[int]FaultPlan{2: {DisconnectAfterOps: 6}}
	res, err := ServePipes(scfg, fx.shards, fx.client, plans)
	if res == nil {
		t.Fatalf("serve: %v", err)
	}
	onlyFaulted(t, err, plans)
	if _, err := second(); err != nil {
		t.Fatalf("rejoined client: %v", err)
	}
	if res.RetriedRounds != 1 || res.Rejoins != 1 {
		t.Fatalf("retried %d rounds, %d rejoins; want 1 and 1", res.RetriedRounds, res.Rejoins)
	}
	// Elided assigns per attempt (round.attempt): round 1's first attempt
	// elides all three and fails on slot 2's crash; its retry — the two
	// survivors and the rejoiner — sends three full models.
	var got []string
	for _, l := range readLedger(t, &ledger)[:4] {
		got = append(got, fmt.Sprintf("%d.%d:%d/%d", l.Round, l.Attempt, l.Elided, l.Rejoins))
	}
	if want := "0.1:0/0 1.1:3/0 1.2:0/1 2.1:3/0"; strings.Join(got, " ") != want {
		t.Fatalf("elided assigns/rejoins by attempt %q, want %q", strings.Join(got, " "), want)
	}
}

// Kill-and-resume under a stochastic (q8) broadcast: the uninterrupted run
// elides the assign of round cut and trains from MsgDeltaReq(cut−1)'s payload;
// the resumed session's first assign re-encodes the model with the RNG of its
// version, which is that same payload, so the two runs agree to the bit and
// the resumed round starts from a full model.
func TestElideResumeStochasticBroadcastBitwise(t *testing.T) {
	const rounds, cut = 6, 3
	fx := newFixture(t, 4)
	run := func(rounds int, path string, resume *Checkpoint, log *frameLog) *ServerResult {
		return elideRun{algo: AlgoRFedAvgPlus, server: log.wrap, shape: func(c *ServerConfig) {
			c.Rounds = rounds
			c.CheckpointPath, c.Resume = path, resume
			c.Codec = CodecPolicy{Broadcast: compress.SchemeInt8, Update: compress.SchemeInt8, Delta: compress.SchemeInt8}
		}}.run(t, fx)
	}
	full := run(rounds, t.TempDir()+"/full.ckpt", nil, &frameLog{})
	path := t.TempDir() + "/cut.ckpt"
	run(cut, path, nil, &frameLog{})
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var log frameLog
	resumed := run(rounds, path, ck, &log)
	if hashFloats(resumed.RoundLosses) != hashFloats(full.RoundLosses) ||
		hashFloats(resumed.FinalParams) != hashFloats(full.FinalParams) {
		t.Fatalf("resumed q8-broadcast session diverged:\n full    %v\n resumed %v", full.RoundLosses, resumed.RoundLosses)
	}
	first := log.assigns(cut)
	if len(first) == 0 {
		t.Fatal("no assign in the first resumed round")
	}
	for _, f := range first {
		if !f.hasModel {
			t.Errorf("slot %d: first assign after resume carries no model", f.slot)
		}
	}
}

// Duplicated frames in either direction and a corrupting client must not
// break the held-model chain: the duplicates are dropped, the corrupter is
// evicted, and the honest clients train exactly as without the duplicates.
func TestElideSurvivesDuplicatesAndCorruption(t *testing.T) {
	fx := newFixture(t, 4)
	corrupt := map[int]FaultPlan{2: {Seed: 3, CorruptProb: 1}}
	base := elideRun{algo: AlgoRFedAvgPlus, plans: corrupt, mayFail: map[int]bool{2: true}}.run(t, fx)

	var log frameLog
	noisy := elideRun{algo: AlgoRFedAvgPlus, mayFail: map[int]bool{2: true},
		// Client 1 sends everything twice; client 3 receives everything twice.
		plans: map[int]FaultPlan{1: {Seed: 1, DuplicateProb: 1}, 2: corrupt[2]},
		server: func(i int, c Conn) Conn {
			if i == 3 {
				c = NewFaultConn(c, FaultPlan{Seed: 2, DuplicateProb: 1})
			}
			return log.wrap(i, c)
		}}.run(t, fx)
	if len(noisy.Evictions) != 1 || noisy.Evictions[0].Client != 2 {
		t.Fatalf("evictions %+v, want only the corrupting client 2", noisy.Evictions)
	}
	if hashFloats(noisy.RoundLosses) != hashFloats(base.RoundLosses) ||
		hashFloats(noisy.FinalParams) != hashFloats(base.FinalParams) {
		t.Fatalf("duplicates changed training:\n base  %v\n noisy %v", base.RoundLosses, noisy.RoundLosses)
	}
	for r := 1; r < len(noisy.RoundLosses); r++ {
		for _, f := range log.assigns(r) {
			if f.hasModel {
				t.Errorf("round %d slot %d: honest client lost its held model", r, f.slot)
			}
		}
	}
}

// A forged or buggy server frame is an error from RunClient, never a panic.
func TestRunClientRejectsBadModelFrames(t *testing.T) {
	fx := newFixture(t, 1)
	n := fx.builder(fx.ccfg.ModelSeed).NumParams()
	packed := func(n int) PackedVec {
		return PackedVec{Scheme: compress.SchemeF32, N: int32(n), Data: make([]byte, compress.EncodedBytes(compress.SchemeF32, n))}
	}
	good := &Message{Type: MsgDeltaReq, Round: 0, Params: make([]float64, n)}
	// A δ target that is neither absent nor the feature map's width: the
	// client must not drop the regulariser silently (it did) nor reach
	// RegFeatureGradInto's dimension panic. The error names both lengths.
	short := []float64{1, 2, 3}
	var buf []byte
	badTarget := fmt.Sprintf("packed δ target values, feature map has %d", fx.builder(fx.ccfg.ModelSeed).FeatureDim)
	cases := []struct {
		name   string
		frames []*Message
		want   string // what the error must say, when it matters
	}{
		{"3 dense target values", []*Message{{Type: MsgAssign, Params: make([]float64, n), Delta: short}}, "3 dense + 0 " + badTarget},
		{"3 packed target values", []*Message{{Type: MsgAssign, Params: make([]float64, n),
			PDelta: packVec(&buf, compress.SchemeF32, short, nil, nil, nil)}}, "0 dense + 3 " + badTarget},
		{"short dense assign", []*Message{{Type: MsgAssign, Params: make([]float64, n-1)}}, ""},
		{"long dense assign", []*Message{{Type: MsgAssign, Params: make([]float64, n+1)}}, ""},
		{"wrong-N packed assign", []*Message{{Type: MsgAssign, PParams: packed(n - 1)}}, ""},
		{"dense and packed assign", []*Message{{Type: MsgAssign, Params: make([]float64, n), PParams: packed(n)}}, ""},
		{"payload-less assign, nothing held", []*Message{{Type: MsgAssign}}, ""},
		{"payload-less assign, wrong round", []*Message{good, {Type: MsgAssign, Round: 5}}, ""},
		{"payload-less assign after the hold was used", []*Message{good, {Type: MsgAssign, Round: 1}, {Type: MsgAssign, Round: 2}}, ""},
		{"payload-less δ request", []*Message{{Type: MsgDeltaReq}}, ""},
		{"short dense δ request", []*Message{{Type: MsgDeltaReq, Params: make([]float64, n-1)}}, ""},
		{"wrong-N packed δ request", []*Message{{Type: MsgDeltaReq, PParams: packed(n + 1)}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := Pipe()
			defer s.Close()
			done := make(chan error, 1)
			go func() {
				_, err := RunClient(c, fx.shards[0], fx.ccfg)
				done <- err
			}()
			if m, err := s.Recv(); err != nil || m.Type != MsgJoin {
				t.Fatalf("join: %v %v", m, err)
			}
			for _, m := range tc.frames {
				if err := s.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("RunClient accepted the frame")
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("RunClient returned %q, want it to name %q", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunClient neither failed nor returned")
			}
		})
	}
}

// The ledger and the rfl_model_elided_total counter say why down_bytes fell.
func TestElideLedgerCount(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	fx := newFixture(t, 4)
	elideRun{algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) {
		c.Rounds, c.Metrics, c.Ledger = 3, reg, telemetry.NewRunLedger(&buf)
	}}.run(t, fx)
	lines := readLedger(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("%d ledger lines, want 3", len(lines))
	}
	for r, l := range lines {
		want := 4 // every client held the model, except in round 0
		if r == 0 {
			want = 0
		}
		if l.Elided != want {
			t.Errorf("round %d: elided %d, want %d", r, l.Elided, want)
		}
	}
	if got := reg.Counter("rfl_model_elided_total", "").Value(); got != 8 {
		t.Fatalf("rfl_model_elided_total = %d, want 8", got)
	}
}
