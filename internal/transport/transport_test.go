package transport

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Type: MsgUpdate, Round: 7, ClientID: 3, NumSamples: 123,
		Loss: 0.5, Params: []float64{1, -2, math.Pi}, Delta: []float64{4},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.EncodedSize() {
		t.Fatalf("EncodedSize %d, wrote %d", m.EncodedSize(), buf.Len())
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Round != 7 || got.ClientID != 3 ||
		got.NumSamples != 123 || got.Loss != 0.5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Params {
		if got.Params[i] != m.Params[i] {
			t.Fatal("params mismatch")
		}
	}
	if got.Delta[0] != 4 {
		t.Fatal("delta mismatch")
	}
}

func TestMessageEmptySlices(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgJoin, NumSamples: 10}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != nil || got.Delta != nil {
		t.Fatal("empty slices must decode to nil")
	}
}

func TestReadMessageRejectsCorruptFrames(t *testing.T) {
	// Length below header size.
	if _, err := ReadMessage(bytes.NewReader([]byte{1, 0, 0, 0})); err == nil {
		t.Fatal("short frame accepted")
	}
	// Length prefix inconsistent with counts.
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgUpdate, Params: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0]++ // grow the declared body length without data
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("inconsistent frame accepted")
	}
}

// Property: arbitrary messages survive the codec bit-exactly.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(round int32, id int32, n int64, loss float64, params, delta []float64) bool {
		m := &Message{Type: MsgAssign, Round: round, ClientID: id, NumSamples: n,
			Loss: loss, Params: params, Delta: delta}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		if got.Round != round || got.ClientID != id || got.NumSamples != n {
			return false
		}
		if math.Float64bits(got.Loss) != math.Float64bits(loss) {
			return false
		}
		if len(got.Params) != len(params) || len(got.Delta) != len(delta) {
			return false
		}
		for i := range params {
			if math.Float64bits(got.Params[i]) != math.Float64bits(params[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeCountsBytes(t *testing.T) {
	a, b := Pipe()
	m := &Message{Type: MsgJoin, NumSamples: 5}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSamples != 5 {
		t.Fatal("pipe corrupted message")
	}
	if a.BytesSent() != int64(m.EncodedSize()) || b.BytesReceived() != int64(m.EncodedSize()) {
		t.Fatalf("byte accounting: sent %d received %d want %d",
			a.BytesSent(), b.BytesReceived(), m.EncodedSize())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(m); err == nil {
		t.Fatal("send after close must fail")
	}
}

// federatedFixture builds shards and configs for an end-to-end session.
type federatedFixture struct {
	shards  []*data.Dataset
	test    *data.Dataset
	builder nn.Builder
	ccfg    ClientConfig
}

func newFixture(t *testing.T, clients int) *federatedFixture {
	t.Helper()
	train := data.SynthMNIST(400, 1)
	test := data.SynthMNIST(200, 2)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionBySimilarity(train.Y, clients, 0, rng)
	shards := make([]*data.Dataset, clients)
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	builder := nn.NewMLP(train.Features(), 24, 12, train.Classes)
	return &federatedFixture{
		shards:  shards,
		test:    test,
		builder: builder,
		ccfg: ClientConfig{
			Builder: builder, ModelSeed: 7, Seed: 11,
			LocalSteps: 5, BatchSize: 16, LR: opt.ConstLR(0.1), Lambda: 1e-3,
		},
	}
}

// client is slot i's configuration: the fixture's, seeded 100+i.
func (fx *federatedFixture) client(i int) ClientConfig {
	cfg := fx.ccfg
	cfg.Seed = int64(100 + i)
	return cfg
}

func (fx *federatedFixture) accuracy(params []float64) float64 {
	net := fx.builder(fx.ccfg.ModelSeed)
	net.SetFlat(params)
	x, y := fx.test.Gather(allIdx(fx.test.Len()))
	return nn.Accuracy(net.Predict(x), y)
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// serveLive runs scfg as a live session: Serve on the server ends of the conn
// pairs mk makes (Pipe, a TCP pair), RunClient with client(i) on slot i's
// client end, behind a FaultConn where plans names the slot. The live
// dispatcher orders its frames and its deadlines run on the wall clock, as
// ServePipes' virtual sessions do not. A client with a plan may fail; any
// other failing fails t.
func serveLive(t *testing.T, scfg ServerConfig, shards []*data.Dataset, client func(i int) ClientConfig,
	plans map[int]FaultPlan, mk func() (server, client Conn)) (*ServerResult, error) {
	server := make([]Conn, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		var c Conn
		server[i], c = mk()
		if plan, ok := plans[i]; ok {
			c = NewFaultConn(c, plan)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(c, shard, client(i)); err != nil && plans[i] == (FaultPlan{}) {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	res, err := Serve(scfg, server)
	for _, c := range server {
		c.Close()
	}
	wg.Wait()
	return res, err
}

func runSession(t *testing.T, algo Algorithm, clients, rounds int, mk func(i int) (Conn, Conn)) (*ServerResult, [][]float64) {
	t.Helper()
	fx := newFixture(t, clients)
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := 0; i < clients; i++ {
		serverConns[i], clientConns[i] = mk(i)
	}
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     algo,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
	}

	finals := make([][]float64, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			final, err := RunClient(clientConns[i], fx.shards[i], fx.client(i))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			finals[i] = final
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	// Learning check: the final model must beat the initial one.
	before := fx.accuracy(scfg.InitialParams)
	after := fx.accuracy(res.FinalParams)
	if after <= before || after < 0.4 {
		t.Fatalf("%s session did not learn: %v → %v", algo, before, after)
	}
	return res, finals
}

func TestServeFedAvgOverPipes(t *testing.T) {
	res, finals := runSession(t, AlgoFedAvg, 4, 8, func(i int) (Conn, Conn) { return Pipe() })
	if len(res.RoundLosses) != 8 {
		t.Fatalf("recorded %d round losses", len(res.RoundLosses))
	}
	for i, final := range finals {
		if len(final) != len(res.FinalParams) {
			t.Fatalf("client %d final params length %d", i, len(final))
		}
		for j := range final {
			if final[j] != res.FinalParams[j] {
				t.Fatalf("client %d final model differs from server's", i)
			}
		}
	}
}

func TestServeRFedAvgPlusOverPipes(t *testing.T) {
	fx := newFixture(t, 4)
	net := fx.builder(fx.ccfg.ModelSeed)
	res, err := ServePipes(ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: 8, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
	}, fx.shards, fx.client, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoundLosses[len(res.RoundLosses)-1] >= res.RoundLosses[0] {
		t.Fatalf("loss did not decrease: %v", res.RoundLosses)
	}
	if before, after := fx.accuracy(net.GetFlat()), fx.accuracy(res.FinalParams); after <= before || after < 0.4 {
		t.Fatalf("session did not learn: %v → %v", before, after)
	}
}

// When Serve fails, ServePipes returns its error instead of hanging: the two
// honest clients parked in Recv see their pipes close. Two clients crash
// after their join, so the MinClients quorum of four cannot be met again.
func TestServePipesReturnsServeError(t *testing.T) {
	fx := newFixture(t, 4)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{Algorithm: AlgoFedAvg, Rounds: 3, InitialParams: net.GetFlat(), MinClients: 4}
	plans := map[int]FaultPlan{1: {DisconnectAfterOps: 1}, 3: {DisconnectAfterOps: 1}}
	type result struct {
		res *ServerResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := ServePipes(scfg, fx.shards, fx.client, plans)
		done <- result{res, err}
	}()
	select {
	case r := <-done:
		if r.res != nil || r.err == nil || !strings.Contains(r.err.Error(), "failed after") {
			t.Fatalf("got (%v, %v), want no result and Serve's quorum error", r.res, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ServePipes hung after Serve failed")
	}
}

// ServeFederation carries the simulator federation's settings onto the wire:
// SR 0.5 samples two of four slots a round, the federation's ledger gets one
// line a round, the q8 session with error feedback learns, and its metered
// upload is on the result.
func TestServeFederationCarriesConfig(t *testing.T) {
	fx := newFixture(t, 4)
	var ledger bytes.Buffer
	c := fx.ccfg
	f := fl.NewFederation(fl.Config{
		Builder: c.Builder, ModelSeed: c.ModelSeed, Seed: 3, LocalSteps: c.LocalSteps, BatchSize: c.BatchSize,
		LR: c.LR, SampleRatio: 0.5, Ledger: telemetry.NewRunLedger(&ledger),
	}, fx.shards, fx.test)
	res, err := ServeFederation(f, ServerConfig{Algorithm: AlgoRFedAvgPlus, Rounds: 6, Codec: CodecPolicy{Update: compress.SchemeInt8}}, c.Lambda, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, co := range res.Cohorts {
		if n := count(co.Mask); n != 2 {
			t.Fatalf("round %d sampled %d slots, want 2", co.Round, n)
		}
	}
	if lines := bytes.Count(ledger.Bytes(), []byte(`{"kind":"round"`)); lines != 6 || !bytes.Contains(ledger.Bytes(), []byte(`"up_scheme":"q8"`)) {
		t.Fatalf("ledger has %d round lines, want 6 naming q8:\n%s", lines, ledger.Bytes())
	}
	if before, after := fx.accuracy(f.InitialParams()), f.Evaluate(res.FinalParams, fx.test); after <= before || res.UpBytes == 0 {
		t.Fatalf("accuracy %v → %v, %d bytes up", before, after, res.UpBytes)
	}
}

func TestServeOverTCP(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const clients = 3
	accepted := make([]Conn, clients)
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for i := 0; i < clients; i++ {
			c, err := l.Accept()
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			accepted[i] = c
		}
	}()

	dialed := make([]Conn, clients)
	for i := range dialed {
		c, err := Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		dialed[i] = c
	}
	acceptWG.Wait()

	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: 5,
		InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(200 + i)
			if _, err := RunClient(dialed[i], fx.shards[i], cfg); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	res, err := Serve(scfg, accepted)
	if err != nil {
		t.Fatalf("serve over TCP: %v", err)
	}
	wg.Wait()
	if fx.accuracy(res.FinalParams) < 0.4 {
		t.Fatalf("TCP session accuracy %v", fx.accuracy(res.FinalParams))
	}
	// Real bytes flowed in both directions.
	if accepted[0].BytesSent() == 0 || accepted[0].BytesReceived() == 0 {
		t.Fatal("TCP byte counters empty")
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	if _, err := Serve(ServerConfig{Rounds: 1}, nil); err == nil {
		t.Fatal("no clients accepted")
	}
	a, _ := Pipe()
	if _, err := Serve(ServerConfig{Rounds: 0, InitialParams: []float64{1}}, []Conn{a}); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := Serve(ServerConfig{Rounds: 1, Algorithm: AlgoRFedAvgPlus, InitialParams: []float64{1}}, []Conn{a}); err == nil {
		t.Fatal("rfedavg+ without FeatureDim accepted")
	}
	// A method the server does not speak is refused by name before the join,
	// not trained as FedAvg under its label.
	_, err := Serve(ServerConfig{Rounds: 1, Algorithm: "rfedavg", InitialParams: []float64{1}, RoundDeadline: 50 * time.Millisecond}, []Conn{a})
	if err == nil || !strings.Contains(err.Error(), `"rfedavg"`) {
		t.Fatalf("unknown algorithm: got %v, want an error naming \"rfedavg\"", err)
	}
}

func TestRunClientRejectsBadConfig(t *testing.T) {
	a, _ := Pipe()
	ds := data.SynthMNIST(10, 1)
	if _, err := RunClient(a, ds, ClientConfig{}); err == nil {
		t.Fatal("zero-value client config accepted")
	}
}
