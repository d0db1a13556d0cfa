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

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
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
			cfg := fx.ccfg
			cfg.Seed = int64(100 + i)
			final, err := RunClient(clientConns[i], fx.shards[i], cfg)
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
	res, _ := runSession(t, AlgoRFedAvgPlus, 4, 8, func(i int) (Conn, Conn) { return Pipe() })
	if res.RoundLosses[len(res.RoundLosses)-1] >= res.RoundLosses[0] {
		t.Fatalf("loss did not decrease: %v", res.RoundLosses)
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
