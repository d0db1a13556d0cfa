package transport

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/traceview"
)

// These tests pin the tracing + run-ledger integration: a session over
// in-process pipes must produce a stitched span tree (server phases with
// the client-side work parented into the same trace via the frame headers)
// and one ledger line per round attempt carrying the training dynamics.

// tracedSession runs a short rFedAvg+ session over pipes with one shared
// tracer (server and clients in-process, as flsim does) and a ledger.
func tracedSession(t *testing.T, clients, rounds int) ([]traceview.Span, []traceview.LedgerLine) {
	t.Helper()
	fx := newFixture(t, clients)
	var traceBuf, ledgerBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf)
	ledger := telemetry.NewRunLedger(&ledgerBuf)

	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Metrics:       telemetry.NewRegistry(),
		Tracer:        tracer,
		Ledger:        ledger,
	}
	traced := func(i int) ClientConfig {
		cfg := fx.client(i)
		cfg.ClientID = i
		cfg.Tracer = tracer
		return cfg
	}
	if _, err := ServePipes(scfg, fx.shards, traced, nil); err != nil {
		t.Fatalf("serve: %v", err)
	}
	spans, err := traceview.ReadSpans(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	return spans, readLedger(t, &ledgerBuf)
}

func TestServeEmitsStitchedSpanTree(t *testing.T) {
	const clients, rounds = 3, 2
	spans, _ := tracedSession(t, clients, rounds)

	byName := map[string][]traceview.Span{}
	byID := map[string]traceview.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.Span] = s
	}
	sessions := byName["session"]
	if len(sessions) != 1 {
		t.Fatalf("got %d session spans, want 1", len(sessions))
	}
	root := sessions[0]
	if root.Parent != "" {
		t.Errorf("session span has parent %q", root.Parent)
	}
	// Every span of the run — server and client side — shares the trace.
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %s has trace %q, want %q", s.Name, s.Trace, root.Trace)
		}
	}
	if len(byName["round"]) != rounds {
		t.Fatalf("got %d round spans, want %d", len(byName["round"]), rounds)
	}
	for _, r := range byName["round"] {
		if r.Parent != root.Span {
			t.Errorf("round span parents to %q, want session %q", r.Parent, root.Span)
		}
		if r.Round == nil {
			t.Error("round span missing round attribute")
		}
	}
	// Server phases nest under their round.
	for _, name := range []string{"broadcast", "gather", "delta_sync"} {
		if len(byName[name]) != rounds {
			t.Errorf("got %d %s spans, want %d", len(byName[name]), name, rounds)
		}
		for _, s := range byName[name] {
			if p, ok := byID[s.Parent]; !ok || p.Name != "round" {
				t.Errorf("%s span parents to %q, want a round span", name, s.Parent)
			}
		}
	}
	// Per-client waits nest under the phase spans.
	if n := len(byName["gather_client"]); n != rounds*clients {
		t.Errorf("got %d gather_client spans, want %d", n, rounds*clients)
	}
	for _, s := range byName["gather_client"] {
		if s.Client == nil {
			t.Error("gather_client span missing client attribute")
		}
		if p, ok := byID[s.Parent]; !ok || p.Name != "gather" {
			t.Errorf("gather_client parents to %q, want a gather span", s.Parent)
		}
	}
	// Client-side work is stitched through the wire: client_round spans
	// parent directly to the server's round spans.
	if n := len(byName["client_round"]); n != rounds*clients {
		t.Errorf("got %d client_round spans, want %d", n, rounds*clients)
	}
	for _, s := range byName["client_round"] {
		if p, ok := byID[s.Parent]; !ok || p.Name != "round" {
			t.Errorf("client_round parents to %q, want a round span", s.Parent)
		}
	}
	for _, name := range []string{"local_steps", "serialize"} {
		for _, s := range byName[name] {
			if p, ok := byID[s.Parent]; !ok || p.Name != "client_round" {
				t.Errorf("%s parents to %q, want a client_round span", name, s.Parent)
			}
		}
	}
	// λ > 0 under rfedavg+ after round 0 means the regularizer ran: the
	// MMD-gradient spans must appear under local_steps.
	if len(byName["mmd_grad"]) == 0 {
		t.Error("no mmd_grad spans — regularized steps were not traced")
	}
	for _, s := range byName["mmd_grad"] {
		if p, ok := byID[s.Parent]; !ok || p.Name != "local_steps" {
			t.Errorf("mmd_grad parents to %q, want a local_steps span", s.Parent)
		}
	}
	// The δ recomputation parents to the round via the MsgDeltaReq header.
	if n := len(byName["compute_delta"]); n != rounds*clients {
		t.Errorf("got %d compute_delta spans, want %d", n, rounds*clients)
	}
}

func TestServeWritesLedgerDynamics(t *testing.T) {
	const clients, rounds = 3, 2
	_, lines := tracedSession(t, clients, rounds)

	if len(lines) != rounds {
		t.Fatalf("got %d ledger lines, want %d", len(lines), rounds)
	}
	for i, l := range lines {
		if l.Round != i || l.Attempt != 1 || !l.OK || l.Algo != string(AlgoRFedAvgPlus) {
			t.Errorf("line %d identity: %+v", i, l)
		}
		if l.Loss == nil || math.IsNaN(*l.Loss) || *l.Loss <= 0 {
			t.Errorf("line %d loss = %v", i, l.Loss)
		}
		if l.DurNS <= 0 {
			t.Errorf("line %d dur_ns = %d", i, l.DurNS)
		}
		if l.UpBytes <= 0 || l.DownBytes <= 0 {
			t.Errorf("line %d bytes up=%d down=%d", i, l.UpBytes, l.DownBytes)
		}
		if len(l.ClientID) != clients || len(l.ClientLoss) != clients || len(l.ClientNorm) != clients {
			t.Errorf("line %d client arrays: id=%d loss=%d norm=%d", i, len(l.ClientID), len(l.ClientLoss), len(l.ClientNorm))
		}
		for _, n := range l.ClientNorm {
			if n <= 0 {
				t.Errorf("line %d non-positive update norm %v", i, n)
			}
		}
		if l.MMDDim != clients || len(l.MMD) != clients*clients {
			t.Errorf("line %d MMD matrix: dim=%d len=%d", i, l.MMDDim, len(l.MMD))
		}
		for a := 0; a < l.MMDDim; a++ {
			if l.MMD[a*l.MMDDim+a] != 0 {
				t.Errorf("line %d MMD diagonal [%d] = %v", i, a, l.MMD[a*l.MMDDim+a])
			}
		}
		if len(l.DeltaAges) != clients {
			t.Errorf("line %d delta_ages = %v", i, l.DeltaAges)
		}
	}
}

// ledgerSession serves cfg over ServePipes to fixture clients, plans faulting
// some, with a ledger and returns the ledger's lines.
func ledgerSession(t *testing.T, cfg ServerConfig, clients int, plans map[int]FaultPlan) ([]traceview.LedgerLine, error) {
	t.Helper()
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	var buf bytes.Buffer
	cfg.InitialParams, cfg.FeatureDim = net.GetFlat(), net.FeatureDim
	cfg.Metrics, cfg.Ledger = telemetry.NewRegistry(), telemetry.NewRunLedger(&buf)
	_, err := ServePipes(cfg, fx.shards, func(int) ClientConfig { return fx.ccfg }, plans)
	return readLedger(t, &buf), err
}

// checkPhases holds a ledger line's phase_ms to the phase list want: the
// same keys, no negative time, and no more time in all than the round's
// dur_ns, which the same clock measured around them.
func checkPhases(t *testing.T, l traceview.LedgerLine, want []string) {
	t.Helper()
	sum := 0.0
	for _, p := range want {
		ms, ok := l.PhaseMS[p]
		if !ok || ms < 0 {
			t.Errorf("round %d attempt %d: phase %q = %v, present %v", l.Round, l.Attempt, p, ms, ok)
		}
		sum += ms
	}
	if len(l.PhaseMS) != len(want) {
		t.Errorf("round %d attempt %d: phases %v, want %v", l.Round, l.Attempt, l.PhaseMS, want)
	}
	if sum*1e6 > float64(l.DurNS)*(1+1e-9) {
		t.Errorf("round %d attempt %d: phases add up to %vms, the round took %dns", l.Round, l.Attempt, sum, l.DurNS)
	}
}

// Every ledger line carries the time of each phase its attempt ran: an ok
// line exactly its algorithm's phase list, synchronous or buffered, and a
// quorum miss the phases up to validate and none after.
func TestLedgerRecordsPhases(t *testing.T) {
	const clients, rounds = 3, 2
	fedavg := []string{"prepare", "broadcast", "gather", "validate", "close", "age"}
	plus := []string{"prepare", "broadcast", "gather", "validate", "close", "delta_sync", "age"}
	for _, tc := range []struct {
		algo    Algorithm
		bufferK int
		want    []string
	}{
		{AlgoFedAvg, 0, fedavg},
		{AlgoFedAvg, 2, fedavg},
		{AlgoRFedAvgPlus, 0, plus},
		{AlgoRFedAvgPlus, 2, plus},
	} {
		lines, err := ledgerSession(t, ServerConfig{Algorithm: tc.algo, Rounds: rounds, BufferK: tc.bufferK}, clients, nil)
		if err != nil {
			t.Fatalf("%s, BufferK %d: %v", tc.algo, tc.bufferK, err)
		}
		if len(lines) != rounds {
			t.Fatalf("%s, BufferK %d: %d ledger lines, want %d", tc.algo, tc.bufferK, len(lines), rounds)
		}
		for _, l := range lines {
			checkPhases(t, l, tc.want)
		}
	}

	// Client 2 dies sending its round-0 update: with a quorum of every
	// client the first attempt fails at validate, and no later attempt runs.
	lines, err := ledgerSession(t, ServerConfig{Algorithm: AlgoRFedAvgPlus, Rounds: rounds, MinClients: clients}, clients,
		map[int]FaultPlan{2: {Seed: 1, DisconnectAfterOps: 2}})
	if err == nil || len(lines) != 1 || lines[0].OK {
		t.Fatalf("quorum miss: err %v, lines %+v; want a failed session with one failed attempt", err, lines)
	}
	checkPhases(t, lines[0], fedavg[:4])
}

// TestTraceContextSurvivesWire pins the header propagation at the codec
// level: a frame's span context must round-trip through encode/decode.
func TestTraceContextSurvivesWire(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: MsgAssign, Round: 5, ClientID: 2, Trace: 0xdeadbeefcafe, Span: 0x1234567890ab}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != in.Trace || out.Span != in.Span {
		t.Fatalf("span context mangled: got %x/%x, want %x/%x", out.Trace, out.Span, in.Trace, in.Span)
	}
	ctx := out.SpanContext()
	if ctx.Trace != in.Trace || ctx.Span != in.Span || !ctx.Valid() {
		t.Fatalf("SpanContext() = %+v", ctx)
	}
}

// holdConn is a client conn whose first MsgUpdate waits for release, after
// closing held: its session sits in round 0 meanwhile.
type holdConn struct {
	Conn
	held, release chan struct{}
	once          sync.Once
}

func (c *holdConn) Send(m *Message) error {
	if m.Type == MsgUpdate {
		c.once.Do(func() {
			close(c.held)
			<-c.release
		})
	}
	return c.Conn.Send(m)
}

// Every session of one algorithm on a registry adds to the same byte and
// elision series, so the ledger counts the session's own conns: a session
// whose round 0 stays open while another one runs start to finish on the same
// registry records the byte columns it records alone.
func TestLedgerBytesAreTheSessionsOwn(t *testing.T) {
	fx := newFixture(t, 4)
	reg := telemetry.NewRegistry()
	// run serves a 2-round session on reg with hold, if set, around client
	// 0's conn.
	run := func(ledger *bytes.Buffer, hold *holdConn) error {
		net := fx.builder(fx.ccfg.ModelSeed)
		cfg := ServerConfig{Algorithm: AlgoRFedAvgPlus, Rounds: 2, InitialParams: net.GetFlat(),
			FeatureDim: net.FeatureDim, Seed: 5, Metrics: reg}
		if ledger != nil {
			cfg.Ledger = telemetry.NewRunLedger(ledger)
		}
		server := make([]Conn, len(fx.shards))
		var wg sync.WaitGroup
		for i := range server {
			var c Conn
			server[i], c = Pipe()
			if i == 0 && hold != nil {
				hold.Conn, c = c, hold
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunClient(c, fx.shards[i], fx.ccfg); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			}()
		}
		_, err := Serve(cfg, server)
		if err != nil {
			for _, c := range server {
				c.Close()
			}
		}
		wg.Wait()
		return err
	}
	var solo bytes.Buffer
	if err := run(&solo, nil); err != nil {
		t.Fatal(err)
	}

	hold := &holdConn{held: make(chan struct{}), release: make(chan struct{})}
	other := make(chan error, 1)
	go func() {
		defer close(hold.release)
		<-hold.held
		other <- run(nil, nil)
	}()
	var shared bytes.Buffer
	if err := run(&shared, hold); err != nil {
		t.Fatal(err)
	}
	if err := <-other; err != nil {
		t.Fatalf("the other session: %v", err)
	}

	want, got := readLedger(t, &solo), readLedger(t, &shared)
	if len(got) != len(want) {
		t.Fatalf("%d ledger lines beside another session, %d alone", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.UpBytes != w.UpBytes || g.DownBytes != w.DownBytes || g.Elided != w.Elided {
			t.Errorf("round %d: up %d down %d elided %d beside another session, %d %d %d alone",
				w.Round, g.UpBytes, g.DownBytes, g.Elided, w.UpBytes, w.DownBytes, w.Elided)
		}
	}
}
