package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// pipeSession sets up a one-round FedAvg session over n pipes — peers
// wrapped, pumps running, every client joined — and returns it with the
// client ends. shape edits the config first.
func pipeSession(t *testing.T, n int, shape func(*ServerConfig)) (*session, []Conn) {
	t.Helper()
	cfg := ServerConfig{Algorithm: AlgoFedAvg, Rounds: 1, InitialParams: []float64{1, 2}, Metrics: telemetry.NewRegistry()}
	if shape != nil {
		shape(&cfg)
	}
	server, client := make([]Conn, n), make([]Conn, n)
	for i := range server {
		server[i], client[i] = Pipe()
		client[i].Send(&Message{Type: MsgJoin, NumSamples: 9}) // a pipe queues it
	}
	s := new(session)
	if err := s.setup(cfg, server); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(s.done)
		for _, c := range client {
			c.Close()
		}
	})
	if err := s.join(); err != nil {
		t.Fatal(err)
	}
	return s, client
}

// The tests named DeadlineConn check how a server-side conn — a peer, read
// by its pump into the session inbox — behaves under a phase deadline.

// A wait whose deadline fired on an idle session returns at once with no
// event, and a synchronous gather it ends evicts the member that did not
// deliver.
func TestDeadlineConnRecvTimeout(t *testing.T) {
	s, _ := pipeSession(t, 1, nil)
	expired, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if s.dispatch(expired.Done()) {
		t.Fatal("dispatch handled an event on an idle session")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("the timed-out wait took %v", elapsed)
	}
	if m := s.collect(expired, MsgUpdate, 0, []int{0}, 1, telemetry.SpanContext{})[0]; m != nil || s.active[0] {
		t.Fatalf("timed-out gather got %+v, slot active %v; want nothing, evicted", m, s.active[0])
	}
	if ev := s.res.Evictions; len(ev) != 1 || ev[0].Client != 0 || !strings.Contains(ev[0].Reason, ErrTimeout.Error()) {
		t.Fatalf("evictions %+v, want slot 0 for the deadline", ev)
	}
}

// A frame that lands after a wait's deadline fired is not lost: the next
// gather takes it. A buffered gather's straggler stays busy until its update
// lands and is parked.
func TestDeadlineConnLateFrameNotLost(t *testing.T) {
	update := &Message{Type: MsgUpdate, Loss: 0.5, Params: []float64{3, 4}}
	expired, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()

	s, clients := pipeSession(t, 1, nil)
	if s.dispatch(expired.Done()) {
		t.Fatal("dispatch handled an event on an idle session")
	}
	if err := clients[0].Send(update); err != nil {
		t.Fatal(err)
	}
	bound, cancelBound := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelBound()
	if m := s.collect(bound, MsgUpdate, 0, []int{0}, 1, telemetry.SpanContext{})[0]; m == nil || m.Loss != 0.5 {
		t.Fatalf("the next gather got %+v, want the late update", m)
	}

	s, clients = pipeSession(t, 1, func(c *ServerConfig) { c.BufferK = 1 })
	if m := s.collect(expired, MsgUpdate, 0, []int{0}, 1, telemetry.SpanContext{})[0]; m != nil || !s.busy(0) {
		t.Fatalf("timed-out buffered gather got %+v, busy %v; want nothing, busy", m, s.busy(0))
	}
	if err := clients[0].Send(update); err != nil {
		t.Fatal(err)
	}
	s.dispatch(nil)
	if b := s.buffered[0]; b == nil || b.Round != 0 || b.Loss != 0.5 || s.busy(0) {
		t.Fatalf("late update parked as %+v (busy %v), want round 0, loss 0.5, not busy", b, s.busy(0))
	}
}

// A frame already in the inbox wins over a deadline that has fired.
func TestDeadlineConnRecvContext(t *testing.T) {
	s, clients := pipeSession(t, 1, nil)
	if err := clients[0].Send(&Message{Type: MsgUpdate, Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	for len(s.inbox) == 0 { // wait for the pump to queue it
		time.Sleep(time.Millisecond)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if m := s.collect(done, MsgUpdate, 0, []int{0}, 1, telemetry.SpanContext{})[0]; m == nil || m.Loss != 0.5 || !s.active[0] {
		t.Fatalf("gather under a dead context got %+v (active %v), want the queued update", m, s.active[0])
	}
}

// Sends and receives pass through the peer: they are metered into the
// session's series, and the conn's own byte counters show through.
func TestDeadlineConnPassThrough(t *testing.T) {
	s, clients := pipeSession(t, 1, nil)
	p := s.conns[0]
	m := &Message{Type: MsgAssign, Params: []float64{1, 2}}
	if err := p.Send(m); err != nil {
		t.Fatal(err)
	}
	if got, err := clients[0].Recv(); err != nil || len(got.Params) != 2 {
		t.Fatalf("send through the peer: %v %v", got, err)
	}
	if err := clients[0].Send(&Message{Type: MsgUpdate, Loss: 1.5}); err != nil {
		t.Fatal(err)
	}
	if a := <-s.inbox; a.p != p || a.err != nil || a.m.Loss != 1.5 {
		t.Fatalf("pump delivered %+v, want the update from peer 0", a)
	}
	n := int64(m.EncodedSize())
	if p.BytesSent() != n || s.metrics.sent.Load() != n || p.BytesReceived() == 0 || s.metrics.recv.Load() != p.BytesReceived() {
		t.Fatalf("bytes sent %d (metered %d), received %d (metered %d); want %d sent, equal received",
			p.BytesSent(), s.metrics.sent.Load(), p.BytesReceived(), s.metrics.recv.Load(), n)
	}
}

// After Close a send fails, unmetered, and the pump delivers the read error.
func TestDeadlineConnClosedOps(t *testing.T) {
	s, _ := pipeSession(t, 1, nil)
	p := s.conns[0]
	p.Close()
	if err := p.Send(&Message{Type: MsgAssign}); err == nil || p.BytesSent() != 0 || s.metrics.sent.Load() != 0 {
		t.Fatalf("send after close: %v, %d bytes sent (metered %d); want an error, none", err, p.BytesSent(), s.metrics.sent.Load())
	}
	if a := <-s.inbox; a.p != p || a.err == nil {
		t.Fatalf("pump delivered %+v after close, want peer 0's read error", a)
	}
}

// stallConn is a server-side conn whose first send of one frame type blocks
// until Close, and records how long it blocked.
type stallConn struct {
	Conn
	on        MsgType
	once      sync.Once
	closeOnce sync.Once
	closed    chan struct{}
	took      time.Duration // written before returned is set
	returned  atomic.Bool
}

func (c *stallConn) Send(m *Message) error {
	stall := false
	if m.Type == c.on {
		c.once.Do(func() { stall = true })
	}
	if !stall {
		return c.Conn.Send(m)
	}
	start := time.Now()
	<-c.closed
	c.took = time.Since(start)
	c.returned.Store(true)
	return errors.New("stalled send: conn closed")
}

func (c *stallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// A send stuck in the assign, the δ request or MsgDone ends when the phase's
// deadline fires: the watchdog closes the conn, the send returns ErrTimeout
// and the peer is evicted (MsgDone's failure is logged and ignored). The
// rounds complete over the survivors, and Serve returns with no sender left
// behind. make test-race runs it 20 times.
func TestDeadlineConnSendTimeout(t *testing.T) {
	const clients, rounds = 3, 2
	const deadline, slack = 500 * time.Millisecond, 2 * time.Second
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	// A session first, so that what the process starts once (the tensor
	// worker pool) is in every baseline.
	if _, err := ServePipes(ServerConfig{Algorithm: AlgoRFedAvgPlus, Rounds: 1, InitialParams: net.GetFlat(),
		FeatureDim: net.FeatureDim, Metrics: telemetry.NewRegistry()}, fx.shards, fx.client, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		on   MsgType
	}{{"assign", MsgAssign}, {"delta-req", MsgDeltaReq}, {"done", MsgDone}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var mu sync.Mutex
			var logs []string
			scfg := ServerConfig{
				Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
				RoundDeadline: deadline, Metrics: telemetry.NewRegistry(),
				Logf: func(format string, args ...any) {
					mu.Lock()
					logs = append(logs, fmt.Sprintf(format, args...))
					mu.Unlock()
				},
			}
			server := make([]Conn, clients)
			var wg sync.WaitGroup
			for i := range server {
				var c Conn
				server[i], c = Pipe()
				wg.Add(1)
				go func() {
					defer wg.Done()
					RunClient(c, fx.shards[i], fx.client(i)) // slot 1's fails once its conn is closed
				}()
			}
			stall := &stallConn{Conn: server[1], on: tc.on, closed: make(chan struct{})}
			server[1] = stall
			res, err := Serve(scfg, server)
			if err != nil {
				t.Fatal(err)
			}
			if !stall.returned.Load() {
				t.Fatal("Serve returned with its send to slot 1 still blocked")
			}
			if stall.took > deadline+slack {
				t.Errorf("the stuck send took %v, want at most %v", stall.took, deadline+slack)
			}
			if len(res.RoundLosses) != rounds {
				t.Errorf("completed %d rounds, want %d", len(res.RoundLosses), rounds)
			}
			if tc.on == MsgDone {
				mu.Lock()
				failed := strings.Join(logs, "\n")
				mu.Unlock()
				if len(res.Evictions) != 0 || !strings.Contains(failed, "done to client 1 failed (ignored): "+ErrTimeout.Error()) {
					t.Errorf("evictions %+v, log %q; want none, and slot 1's done timed out", res.Evictions, failed)
				}
			} else if ev := res.Evictions; len(ev) != 1 || ev[0].Client != 1 || ev[0].Round != 0 ||
				!strings.Contains(ev[0].Reason, "broadcast: "+ErrTimeout.Error()) {
				t.Errorf("evictions %+v, want slot 1 in round 0 for the send's deadline", ev)
			}
			for _, c := range server {
				c.Close()
			}
			wg.Wait()
			for wait := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(wait) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the session, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// nopConn is a conn whose Send returns at once.
type nopConn struct{ Conn }

func (nopConn) Send(*Message) error { return nil }

// A send under a deadline allocates nothing: no goroutine, no channel.
func TestPeerSendAllocs(t *testing.T) {
	p := &peer{Conn: nopConn{}, m: newServerMetrics(telemetry.NewRegistry(), AlgoFedAvg)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	m := &Message{Type: MsgAssign, Params: make([]float64, 8)}
	if a := testing.AllocsPerRun(100, func() {
		if err := p.send(ctx, m); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("peer.send under a deadline: %v allocs, want 0", a)
	}
}

// A rejoiner that connects and never sends its handshake must not hold up a
// round boundary, with deadlines or without; it waits in pending until the
// session closes it. One whose first frame is not a join is refused and
// closed, and costs no one a slot.
func TestSilentRejoinerDoesNotStall(t *testing.T) {
	const clients, rounds = 3, 4
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		first    *Message // the rejoiner's first frame; nil sends none
	}{
		{"silent/deadline=4s", 4 * time.Second, nil},
		{"silent/deadline=0", 0, nil},
		{"bad-handshake", 4 * time.Second, &Message{Type: MsgUpdate, Round: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cli := Pipe()
			if tc.first != nil {
				cli.Send(tc.first) // queued until the server reads it
			}
			rejoin := make(chan Conn, 1)
			rejoin <- srv
			refused := false
			scfg := ServerConfig{
				Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
				RoundDeadline: tc.deadline, Rejoin: rejoin, Metrics: telemetry.NewRegistry(),
				Logf: func(format string, _ ...any) { refused = refused || strings.HasPrefix(format, "rejoin refused") },
			}
			var res *ServerResult
			var err error
			done := make(chan struct{})
			start := time.Now()
			go func() { res, err = serveLive(t, scfg, fx.shards, fx.client, nil, Pipe); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the session hangs on the rejoiner")
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("the session took %v, want under 1s", elapsed)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.RoundLosses) != rounds || len(res.Evictions) != 0 || res.Rejoins != 0 {
				t.Fatalf("%d rounds, evictions %+v, %d rejoins; want %d, none, 0", len(res.RoundLosses), res.Evictions, res.Rejoins, rounds)
			}
			if refused != (tc.first != nil) {
				t.Errorf("refused %v, want %v", refused, tc.first != nil)
			}
			if _, err := cli.Recv(); err == nil {
				t.Error("the rejoiner's conn is still open")
			}
		})
	}
}
