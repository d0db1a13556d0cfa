package transport

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/opt"
)

// TestServeClientDiesMidRound injects a client failure after the join: the
// server must evict the dead client, renormalize the aggregation weights
// over the survivor, and finish every round — not abort the session.
func TestServeClientDiesMidRound(t *testing.T) {
	fx := newFixture(t, 2)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{Algorithm: AlgoFedAvg, Rounds: 3, InitialParams: net.GetFlat()}

	s0, c0 := Pipe()
	s1, c1 := Pipe()

	var wg sync.WaitGroup
	wg.Add(2)
	// Client 0 behaves normally.
	go func() {
		defer wg.Done()
		cfg := fx.ccfg
		_, _ = RunClient(c0, fx.shards[0], cfg)
	}()
	// Client 1 joins, then dies before answering the first assignment.
	go func() {
		defer wg.Done()
		if err := c1.Send(&Message{Type: MsgJoin, NumSamples: 10}); err != nil {
			t.Errorf("join: %v", err)
			return
		}
		if _, err := c1.Recv(); err != nil {
			return
		}
		c1.Close()
	}()

	res, err := Serve(scfg, []Conn{s0, s1})
	if err != nil {
		t.Fatalf("server must survive a client dying mid-round: %v", err)
	}
	if len(res.RoundLosses) != 3 {
		t.Fatalf("completed %d rounds, want 3", len(res.RoundLosses))
	}
	if len(res.Evictions) != 1 || res.Evictions[0].Client != 1 {
		t.Fatalf("expected exactly client 1 evicted, got %+v", res.Evictions)
	}
	if res.Evictions[0].Round != 0 {
		t.Fatalf("eviction should happen in round 0, got round %d", res.Evictions[0].Round)
	}
	s0.Close()
	c0.Close()
	wg.Wait()
}

// TestServeRejectsWrongFirstMessage covers a protocol violation: a client
// that skips the join handshake.
func TestServeRejectsWrongFirstMessage(t *testing.T) {
	s0, c0 := Pipe()
	go func() {
		_ = c0.Send(&Message{Type: MsgUpdate})
	}()
	_, err := Serve(ServerConfig{Algorithm: AlgoFedAvg, Rounds: 1, InitialParams: []float64{1}}, []Conn{s0})
	if err == nil {
		t.Fatal("non-join first message accepted")
	}
}

// TestServeRejectsWrongParamCount covers a client shipping a model of the
// wrong architecture.
func TestServeRejectsWrongParamCount(t *testing.T) {
	s0, c0 := Pipe()
	go func() {
		_ = c0.Send(&Message{Type: MsgJoin, NumSamples: 5})
		if _, err := c0.Recv(); err != nil {
			return
		}
		_ = c0.Send(&Message{Type: MsgUpdate, Params: []float64{1, 2}}) // want 3
	}()
	_, err := Serve(ServerConfig{Algorithm: AlgoFedAvg, Rounds: 1, InitialParams: []float64{1, 2, 3}}, []Conn{s0})
	if err == nil || !strings.Contains(err.Error(), "params") {
		t.Fatalf("wrong-size update accepted: %v", err)
	}
}

// TestServeRejectsZeroSampleJoin covers a degenerate join.
func TestServeRejectsZeroSampleJoin(t *testing.T) {
	s0, c0 := Pipe()
	go func() { _ = c0.Send(&Message{Type: MsgJoin, NumSamples: 0}) }()
	_, err := Serve(ServerConfig{Algorithm: AlgoFedAvg, Rounds: 1, InitialParams: []float64{1}}, []Conn{s0})
	if err == nil {
		t.Fatal("zero-sample join accepted")
	}
}

// TestClientSurvivesServerDoneEarly: a server that immediately finishes
// (MsgDone) must hand the client the final model cleanly.
func TestClientReceivesImmediateDone(t *testing.T) {
	s0, c0 := Pipe()
	final := []float64{4, 5, 6}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Absorb the join, then end the session.
		if _, err := s0.Recv(); err != nil {
			t.Errorf("server recv: %v", err)
			return
		}
		if err := s0.Send(&Message{Type: MsgDone, Params: final}); err != nil {
			t.Errorf("server send: %v", err)
		}
	}()
	fx := newFixture(t, 1)
	cfg := fx.ccfg
	cfg.LR = opt.ConstLR(0.1)
	got, err := RunClient(c0, fx.shards[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range final {
		if got[i] != final[i] {
			t.Fatal("client did not return the final model")
		}
	}
	<-done
}

// TestClientRejectsUnknownMessage covers protocol violations server→client.
func TestClientRejectsUnknownMessage(t *testing.T) {
	s0, c0 := Pipe()
	go func() {
		if _, err := s0.Recv(); err != nil {
			return
		}
		_ = s0.Send(&Message{Type: 99})
	}()
	fx := newFixture(t, 1)
	if _, err := RunClient(c0, fx.shards[0], fx.ccfg); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

// TestServePartialParticipation runs a session where only half the clients
// train each round; skipped clients must stay in sync and still receive the
// final model.
func TestServePartialParticipation(t *testing.T) {
	fx := newFixture(t, 4)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        6,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		SampleRatio:   0.5,
		Seed:          3,
	}
	serverConns := make([]Conn, 4)
	clientConns := make([]Conn, 4)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}
	finals := make([][]float64, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(300 + i)
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
	for i, final := range finals {
		if len(final) != len(res.FinalParams) {
			t.Fatalf("client %d missing final model", i)
		}
	}
	if fx.accuracy(res.FinalParams) <= fx.accuracy(scfg.InitialParams) {
		t.Fatal("partial-participation session did not learn")
	}
}

func TestDialInvalidAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}

func TestListenInvalidAddress(t *testing.T) {
	if _, err := Listen("256.256.256.256:0"); err == nil {
		t.Fatal("invalid listen address accepted")
	}
}

func TestPipeRecvAfterCloseDrains(t *testing.T) {
	a, b := Pipe()
	if err := a.Send(&Message{Type: MsgJoin, NumSamples: 1}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// A message already in flight must still be deliverable.
	if m, err := b.Recv(); err != nil || m.NumSamples != 1 {
		t.Fatalf("drain after close: %v %v", m, err)
	}
	if _, err := b.Recv(); err == nil {
		t.Fatal("empty closed pipe must EOF")
	}
}

// A FaultConn delay never sleeps: it advances the clock of the virtual pipe
// end it wraps, and on any other conn it fails the operation.
func TestFaultConnDelayIsVirtual(t *testing.T) {
	plan := FaultPlan{Seed: 1, DelayProb: 1, MinDelay: time.Hour, MaxDelay: 2 * time.Hour}
	join := &Message{Type: MsgJoin, NumSamples: 1}
	live, _ := Pipe()
	if err := NewFaultConn(live, plan).Send(join); err == nil {
		t.Error("a delayed send on a real pipe succeeded")
	}
	server, client := newPipe(new(time.Duration))
	start := time.Now()
	if err := NewFaultConn(client, plan).Send(join); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the delayed send took %v of wall clock", took)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if at := server.(*inprocConn).at; at <= time.Hour || at > 2*time.Hour {
		t.Errorf("the frame is stamped %v, want in (1h, 2h]", at)
	}
}
