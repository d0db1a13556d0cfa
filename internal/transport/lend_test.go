package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/health"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Tests for the dense client's one buffer: a received model becomes the
// weights (nn.Network.AdoptFlat), the update is sent from them, and a
// streamConn reads the next model into them (lend).

// sentinel(i) is a NaN payload no frame in these tests carries.
func sentinel(i int) uint64 { return 0x7ff8_5e17_0000_0000 + uint64(i) }

func sentinels(v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(sentinel(i))
	}
}

// untouched reports whether v is as sentinels left it.
func untouched(v []float64) bool {
	for i, x := range v {
		if math.Float64bits(x) != sentinel(i) {
			return false
		}
	}
	return true
}

// putBackOnce reports whether the float pool hands v's array out exactly once
// in its next 64 draws at v's length: it was put back, and only once.
func putBackOnce(v []float64) bool {
	seen := 0
	for range 64 {
		if w := tensor.GetFloats(len(v)); &w[0] == &v[0] {
			seen++
		}
	}
	return seen == 1
}

// lendConn is a conn RunClient can lend its weights to.
type lendConn interface {
	Conn
	lend([]float64)
}

// lendKinds are the conns that take offers. open returns a receiver that gets
// msgs in order: a streamConn reading their frames, or a pipe end each is sent
// to once it is parked in Recv with nothing queued.
var lendKinds = []struct {
	name string
	open func(t *testing.T, msgs ...*Message) lendConn
}{
	{"stream", func(t *testing.T, msgs ...*Message) lendConn {
		var raw []byte
		for _, m := range msgs {
			raw = append(raw, encodeFrame(t, m, false)...)
		}
		return &streamConn{rw: discardConn{bytes.NewReader(raw)}}
	}},
	{"pipe", func(t *testing.T, msgs ...*Message) lendConn {
		a, b := Pipe()
		t.Cleanup(func() { a.Close() })
		recv := b.(*inprocConn)
		go func() {
			for _, m := range msgs {
				if !waitParked(recv) || a.Send(m) != nil {
					return
				}
			}
		}()
		return recv
	}},
}

// waitParked waits until c is parked in Recv with nothing queued; false once
// the pipe is closed.
func waitParked(c *inprocConn) bool {
	q := c.in
	for {
		q.mu.Lock()
		parked, closed := q.parked && q.n == 0, q.closed
		q.mu.Unlock()
		if closed || parked {
			return !closed
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestLendSemantics: the offer is for one Recv and for one shape of frame —
// a dense Params section of exactly the lent length — on every conn kind
// that takes offers. A pipe takes it only while its receiver is parked.
func TestLendSemantics(t *testing.T) {
	const n = 300
	model := randomFloats(rand.New(rand.NewSource(21)), n)
	match := &Message{Type: MsgDeltaReq, Round: 3, Params: model}
	packed := make([]byte, compress.EncodedBytes(compress.SchemeF32, n))
	declined := map[string]*Message{
		"shorter model":  {Type: MsgAssign, Params: model[:n-1]},
		"longer model":   {Type: MsgAssign, Params: append(model[:n:n], 1)},
		"packed model":   {Type: MsgAssign, PParams: PackedVec{Scheme: compress.SchemeF32, N: n, Data: packed}},
		"elided assign":  {Type: MsgAssign, Round: 4, Delta: model[:12]},
		"δ of the model": {Type: MsgAssign, Delta: model},
	}
	for name, want := range declined {
		t.Run(name, func(t *testing.T) {
			for _, kind := range lendKinds {
				t.Run(kind.name, func(t *testing.T) {
					// The declined frame is followed by a matching one: the
					// offer must be gone by then.
					c := kind.open(t, want, match)
					lent := make([]float64, n)
					sentinels(lent)
					c.lend(lent)
					got, err := c.Recv()
					if err != nil || !sameMessage(got, want) {
						t.Fatalf("declined frame read as %+v, %v", got, err)
					}
					if sameVector(got.Params, lent) || !untouched(lent) {
						t.Fatal("a frame the offer does not cover was read into the lent slice")
					}
					next, err := c.Recv()
					if err != nil || !sameFloatBits(next.Params, model) {
						t.Fatalf("following frame: %+v, %v", next, err)
					}
					if sameVector(next.Params, lent) || !untouched(lent) {
						t.Fatal("the offer outlived the Recv it was made for")
					}
				})
			}
		})
	}
	t.Run("matching model", func(t *testing.T) {
		both := &Message{Type: MsgAssign, Round: 5, Params: model, Delta: model}
		for _, kind := range lendKinds {
			t.Run(kind.name, func(t *testing.T) {
				c := kind.open(t, match, both, match)
				var lent []float64
				for _, wantDelta := range [][]float64{nil, model} {
					lent = make([]float64, n)
					sentinels(lent)
					c.lend(lent)
					m, err := c.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if !sameVector(m.Params, lent) || !sameFloatBits(lent, model) {
						t.Fatal("a matching frame's Params must be the lent slice, filled with the model")
					}
					if !sameFloatBits(m.Delta, wantDelta) || sameVector(m.Delta, lent) {
						t.Fatal("Delta is never read into lent storage")
					}
				}
				// The offer expires with the Recv it was made for.
				sentinels(lent)
				if m, err := c.Recv(); err != nil || sameVector(m.Params, lent) || !untouched(lent) {
					t.Fatal("a matching frame after the offer's Recv was read into the lent slice")
				}
				if got, want := c.BytesReceived(), int64(2*match.EncodedSize()+both.EncodedSize()); got != want {
					t.Fatalf("BytesReceived %d, want %d", got, want)
				}
			})
		}
	})
	t.Run("big-endian host", func(t *testing.T) {
		lent := make([]float64, n)
		sentinels(lent)
		m, err := readFrameInto(bytes.NewReader(encodeFrame(t, match, false)), false, lent)
		if err != nil {
			t.Fatal(err)
		}
		if !sameVector(m.Params, lent) || !sameFloatBits(lent, model) {
			t.Fatal("the byte-order fix must happen in the lent slice")
		}
	})
	t.Run("short read", func(t *testing.T) {
		raw := encodeFrame(t, match, false)
		c := &streamConn{rw: discardConn{bytes.NewReader(raw[:len(raw)-8*n/2])}}
		lent := make([]float64, n)
		c.lend(lent)
		if m, err := c.Recv(); err == nil || m != nil {
			t.Fatalf("truncated frame read as (%v, %v)", m, err)
		}
	})
	t.Run("pipe", func(t *testing.T) { testPipeLend(t, model) })
}

// testPipeLend is what only a pipe can get wrong: a frame that waited in the
// queue, a sender that reuses its slices, order across the two deliveries,
// and Close. A queued frame lands in the offer as a parked receiver's does,
// and its pooled copy goes back.
func testPipeLend(t *testing.T, model []float64) {
	n := len(model)
	pair := func(t *testing.T) (send func(*Message), recv *inprocConn) {
		a, b := Pipe()
		t.Cleanup(func() { a.Close() })
		return func(m *Message) {
			if err := a.Send(m); err != nil {
				t.Error(err)
			}
		}, b.(*inprocConn)
	}
	offered := func(c *inprocConn) []float64 {
		lent := make([]float64, n)
		sentinels(lent)
		c.lend(lent)
		return lent
	}
	t.Run("queued before Recv", func(t *testing.T) {
		send, c := pair(t)
		sent := slices.Clone(model)
		send(&Message{Type: MsgDeltaReq, Round: 0, Params: sent})
		send(&Message{Type: MsgDeltaReq, Round: 1, Params: sent})
		pooled := c.in.frames[c.in.head].m.Params
		lent := offered(c)
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Round != 0 || !sameVector(m.Params, lent) || !sameFloatBits(lent, model) || m.pooled {
			t.Fatalf("a queued frame must land in the offer, as off a stream: round %d, in the offer %v, pooled %v",
				m.Round, sameVector(m.Params, lent), m.pooled)
		}
		if !putBackOnce(pooled) {
			t.Fatal("the queued frame's pooled copy must go back to the float pool exactly once")
		}
		// Without an offer the frame keeps its pooled copy, the sender's
		// slice still its own.
		if m, err = c.Recv(); err != nil {
			t.Fatal(err)
		}
		if m.Round != 1 || !m.pooled || sameVector(m.Params, sent) || !sameFloatBits(m.Params, model) {
			t.Fatalf("a queued frame without an offer must arrive in its pooled copy: round %d, pooled %v, the sender's %v",
				m.Round, m.pooled, sameVector(m.Params, sent))
		}
		if !sameFloatBits(sent, model) {
			t.Fatal("a queued frame's delivery wrote the sender's slice")
		}
	})
	t.Run("sender's slices", func(t *testing.T) {
		send, c := pair(t)
		delta := model[:12]
		scratch := func() *Message {
			return &Message{Type: MsgAssign, Params: slices.Clone(model), Delta: slices.Clone(delta)}
		}
		overwrite := func(m *Message) {
			clear(m.Params)
			clear(m.Delta)
		}
		queued := scratch()
		send(queued)
		overwrite(queued)
		first, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		lent := offered(c)
		direct := scratch()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			if waitParked(c) {
				send(direct)
				overwrite(direct)
			}
		}()
		second, err := c.Recv()
		if err != nil || !sameVector(second.Params, lent) {
			t.Fatalf("parked receiver: %v, or Params are not the lent slice", err)
		}
		<-sent
		for i, m := range []*Message{first, second} {
			if !sameFloatBits(m.Params, model) || !sameFloatBits(m.Delta, delta) {
				t.Fatalf("frame %d changed with the sender's slices after Send returned", i)
			}
		}
	})
	t.Run("FIFO", func(t *testing.T) {
		send, c := pair(t)
		req := func(r int32) *Message { return &Message{Type: MsgDeltaReq, Round: r, Params: model} }
		send(req(0))
		send(req(1))
		// 2 goes to a parked receiver; 3 and 4 follow straight on, to the
		// queue or to the receiver parked again, whichever the scheduler makes.
		go func() {
			if waitParked(c) {
				send(req(2))
				send(req(3))
				send(req(4))
			}
		}()
		for r := int32(0); r < 5; r++ {
			lent := offered(c)
			m, err := c.Recv()
			if err != nil || m.Round != r || !sameFloatBits(m.Params, model) {
				t.Fatalf("Recv %d: round %v, %v", r, m, err)
			}
			if !sameVector(m.Params, lent) {
				t.Fatalf("round %d did not land in the offer", r)
			}
		}
	})
	t.Run("close drains", func(t *testing.T) {
		send, c := pair(t)
		send(&Message{Type: MsgAssign, Round: 0, Params: model})
		send(&Message{Type: MsgAssign, Round: 1})
		c.Close()
		for r := int32(0); r < 2; r++ {
			lent := offered(c)
			m, err := c.Recv()
			if err != nil || m.Round != r {
				t.Fatalf("queued frame %d after Close: %+v, %v", r, m, err)
			}
			// The model lands in the offer; the frame without one leaves it.
			if landed := sameVector(m.Params, lent); landed != (r == 0) || landed && !sameFloatBits(lent, model) || !landed && !untouched(lent) {
				t.Fatalf("queued frame %d after Close: landed in the offer %v", r, landed)
			}
		}
		lent := offered(c)
		if m, err := c.Recv(); err != io.EOF || m != nil || !untouched(lent) {
			t.Fatalf("drained pipe: (%v, %v), want io.EOF", m, err)
		}
		if err := c.Send(&Message{Type: MsgUpdate}); err == nil {
			t.Fatal("Send on a closed pipe succeeded")
		}
	})
	t.Run("close wakes a parked receiver", func(t *testing.T) {
		_, c := pair(t)
		go func() {
			if waitParked(c) {
				c.Close()
			}
		}()
		lent := offered(c)
		if m, err := c.Recv(); err != io.EOF || m != nil || !untouched(lent) {
			t.Fatalf("parked receiver on Close: (%v, %v), want io.EOF", m, err)
		}
	})
}

// fuzzLent is FuzzReadMessage's second decode of every input, into a lent
// slice sized from the frame's own header so that matching frames occur:
// same outcome as the plain read, nothing written outside the slice, and
// nothing inside it unless the header passed every check.
func fuzzLent(t *testing.T, raw []byte, plain *Message, plainErr error) {
	const pad, maxLent = 4, 1 << 12
	n := 2
	if len(raw) >= 4+msgHeaderSize {
		if np := binary.LittleEndian.Uint32(raw[4+46:]); np <= maxLent {
			n = int(np)
		}
	}
	guard := make([]float64, pad+n+pad)
	sentinels(guard)
	pristine := slices.Clone(guard)
	lent := guard[pad : pad+n : pad+n]
	m, err := readFrameInto(bytes.NewReader(raw), hostLE, lent)
	if (err == nil) != (plainErr == nil) || (err == nil && !sameMessage(m, plain)) {
		t.Fatalf("lent read (%+v, %v) differs from the plain read (%+v, %v)", m, err, plain, plainErr)
	}
	if !sameFloatBits(guard[:pad], pristine[:pad]) || !sameFloatBits(guard[pad+n:], pristine[pad+n:]) {
		t.Fatal("the read wrote outside the lent slice")
	}
	clean := sameFloatBits(lent, pristine[pad:pad+n])
	landed := err == nil && n > 0 && len(m.Params) == n
	switch {
	case landed && !sameVector(m.Params, lent):
		t.Fatal("a matching frame was not read into the lent slice")
	case !landed && err == nil && (sameVector(m.Params, lent) || !clean):
		t.Fatal("a frame the offer does not cover touched the lent slice")
	case err != nil && !strings.Contains(err.Error(), "read frame body") && !clean:
		t.Fatalf("header error %q came after a write to the lent slice", err)
	}
}

// lendSpy is a client's conn that counts the offers RunClient makes and the
// frames that landed in one.
type lendSpy struct {
	lendConn
	offer         []float64
	lends, landed int
}

func (s *lendSpy) lend(v []float64) { s.lends++; s.offer = v; s.lendConn.lend(v) }

func (s *lendSpy) Recv() (*Message, error) {
	offer := s.offer
	s.offer = nil
	m, err := s.lendConn.Recv()
	if err == nil && sameVector(m.Params, offer) {
		s.landed++
	}
	return m, err
}

// lendOutcome is everything a session leaves behind that lending could
// conceivably change.
type lendOutcome struct {
	losses, final []float64
	clientFinals  [][]float64
	down, up      int64
	rejoins       int
	spies         []*lendSpy // nil entries where lend was hidden
}

func (a *lendOutcome) diff(b *lendOutcome) error {
	switch {
	case !sameFloatBits(a.losses, b.losses):
		return fmt.Errorf("round losses %v vs %v", a.losses, b.losses)
	case !sameFloatBits(a.final, b.final):
		return fmt.Errorf("final models differ")
	case a.down != b.down || a.up != b.up:
		return fmt.Errorf("wire bytes down/up %d/%d vs %d/%d", a.down, a.up, b.down, b.up)
	case a.rejoins != b.rejoins:
		return fmt.Errorf("%d rejoins vs %d", a.rejoins, b.rejoins)
	}
	for i := range a.clientFinals {
		if !sameFloatBits(a.clientFinals[i], b.clientFinals[i]) {
			return fmt.Errorf("client %d ended on a different model", i)
		}
	}
	return nil
}

// lendRun is one session on the shared fixture, over loopback TCP or pipes.
// With hide set every client conn is wrapped so that RunClient cannot see
// lend — the path every conn took before lending existed.
type lendRun struct {
	algo   Algorithm
	shape  func(*ServerConfig)
	client func(i int, cfg *ClientConfig)
	server func(i int, c Conn) Conn
	// lives, when set, replaces the plain RunClient call of one slot: it gets
	// a dialer for further connections (server ends go to the rejoin queue).
	lives func(i int, first Conn, redial func() Conn, run func(Conn) ([]float64, error)) ([]float64, error)
	// cut, when positive, is how many bytes a slot's first life reads before
	// its conn fails — over TCP below the framing, part-way through a frame.
	cut func(i int) int
}

func (r lendRun) run(t *testing.T, fx *federatedFixture, overPipe, hide bool) *lendOutcome {
	t.Helper()
	clients := len(fx.shards)
	out := &lendOutcome{clientFinals: make([][]float64, clients), spies: make([]*lendSpy, clients)}
	model := fx.builder(fx.ccfg.ModelSeed)
	rejoin := make(chan Conn, clients)
	scfg := ServerConfig{
		Algorithm: r.algo, Rounds: 5, InitialParams: model.GetFlat(), FeatureDim: model.FeatureDim,
		Seed: 5, Rejoin: rejoin, RoundDeadline: 30 * time.Second,
	}
	if r.shape != nil {
		r.shape(&scfg)
	}
	var mu sync.Mutex
	var ends [][2]Conn // every connection's server and client end
	dial := func(i int, first bool) (server, client Conn) {
		budget := 0
		if first && r.cut != nil {
			budget = r.cut(i)
		}
		sc := new(lendSpy)
		if overPipe {
			var c Conn
			server, c = Pipe()
			sc.lendConn = c.(*inprocConn)
			if budget > 0 {
				sc.lendConn = &cutPipe{inprocConn: c.(*inprocConn), budget: int64(budget)}
			}
		} else {
			s, c := tcpPair(t)
			var rw io.ReadWriteCloser = c
			if budget > 0 {
				rw = &cutStream{Conn: c, budget: budget}
			}
			server, sc.lendConn = NewStreamConn(s), &streamConn{rw: rw}
		}
		client = sc
		if hide {
			client = struct{ Conn }{sc.lendConn}
		} else if first {
			out.spies[i] = sc
		}
		if r.server != nil {
			server = r.server(i, server)
		}
		mu.Lock()
		ends = append(ends, [2]Conn{server, sc})
		mu.Unlock()
		return server, client
	}
	serverConns := make([]Conn, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		var c Conn
		serverConns[i], c = dial(i, true)
		cfg := fx.ccfg
		cfg.Seed, cfg.ClientID = int64(100+i), i
		if r.client != nil {
			r.client(i, &cfg)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := func(c Conn) ([]float64, error) { return RunClient(c, fx.shards[i], cfg) }
			var err error
			if r.lives != nil {
				redial := func() Conn {
					s, c := dial(i, false)
					rejoin <- s
					return c
				}
				out.clientFinals[i], err = r.lives(i, c, redial, run)
			} else {
				out.clientFinals[i], err = run(c)
			}
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	out.losses, out.final, out.rejoins = res.RoundLosses, res.FinalParams, res.Rejoins
	// Bytes are counted where they were sent: how many of a duplicating
	// conn's surplus replies the server still read is a matter of timing.
	for _, e := range ends {
		out.down += e[0].BytesSent()
		out.up += e[1].BytesSent()
		e[0].Close()
		e[1].Close()
	}
	return out
}

// cutStream fails every Read once budget bytes have been delivered — a client
// process dying with a frame half read.
type cutStream struct {
	net.Conn
	budget int
}

func (c *cutStream) Read(p []byte) (int, error) {
	if c.budget <= 0 {
		return 0, fmt.Errorf("cut stream: killed")
	}
	if len(p) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	c.budget -= n
	return n, err
}

// cutPipe is cutStream for a pipe end: the Recv that takes the received
// total past budget bytes fails, with its frame already delivered.
type cutPipe struct {
	*inprocConn
	budget int64
}

func (c *cutPipe) Recv() (*Message, error) {
	m, err := c.inprocConn.Recv()
	if err == nil && c.BytesReceived() > c.budget {
		return nil, fmt.Errorf("cut pipe: killed")
	}
	return m, err
}

// TestLendModeEdges runs each session shape twice over loopback TCP — lend
// visible to RunClient, lend hidden — and requires the same losses, models
// and wire bytes to the bit; landed pins how many frames slot 0's conn read
// into the weights, so that a case cannot pass by never lending. Each shape
// then runs over pipes, lend visible, and must match the TCP run.
func TestLendModeEdges(t *testing.T) {
	fx := newFixture(t, 4)
	nParams := fx.builder(fx.ccfg.ModelSeed).NumParams()
	dupDown := func(i int, c Conn) Conn {
		if i == 0 {
			c = NewFaultConn(c, FaultPlan{Seed: 2, DuplicateProb: 1})
		}
		return c
	}
	cases := []struct {
		name    string
		run     lendRun
		landed  int
		rejoins int
	}{
		// Assign 0 arrives in a slice of its own and becomes the weights; the
		// five δ requests and MsgDone are read into them.
		{"dense rfedavg+", lendRun{algo: AlgoRFedAvgPlus}, 6, 0},
		// Assigns 1–4 and MsgDone.
		{"fedavg full assigns", lendRun{algo: AlgoFedAvg}, 5, 0},
		// Sampled cohorts: every assign carries the model, whether or not the
		// slot's previous δ request did too.
		{"sampled cohort", lendRun{algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) { c.SampleRatio = 0.75 }}, -1, 0},
		// Nothing is adopted, so nothing is lent: every dense frame is the
		// codec's reference, every packed one is decoded into its buffer.
		{"dense broadcast, q8 uplink", lendRun{algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) {
			c.Codec = CodecPolicy{Update: compress.SchemeInt8}
		}}, 0, 0},
		{"f32 broadcast, dense uplink", lendRun{algo: AlgoRFedAvgPlus, shape: func(c *ServerConfig) {
			c.Codec = CodecPolicy{Broadcast: compress.SchemeF32}
		}}, 0, 0},
		{"self-monitor", lendRun{algo: AlgoRFedAvgPlus, client: func(_ int, cfg *ClientConfig) {
			cfg.Health = health.New(health.Config{Registry: telemetry.NewRegistry()})
		}}, 0, 0},
		// Slot 0 gets every frame twice: the second copy of a δ request or a
		// full assign lands in weights the first copy already filled (or
		// already trained), and the client answers both. It leaves at the
		// first MsgDone.
		{"duplicated δ requests", lendRun{algo: AlgoRFedAvgPlus, server: dupDown}, 12, 0},
		{"duplicated full assigns", lendRun{algo: AlgoFedAvg, server: dupDown}, 10, 0},
		// Slot 2 dies half-way through reading δ request 1 into its weights
		// and comes back as a new process; its first life's conn is the one
		// with the cut, both lives lend.
		{"kill and rejoin", lendRun{algo: AlgoRFedAvgPlus,
			shape: func(c *ServerConfig) { c.MinClients = 4 },
			cut: func(i int) int {
				if i != 2 {
					return 0
				}
				return 8*nParams*5/2 + 1024
			},
			lives: func(i int, first Conn, redial func() Conn, run func(Conn) ([]float64, error)) ([]float64, error) {
				if i != 2 {
					return run(first)
				}
				if _, err := run(first); err == nil {
					return nil, fmt.Errorf("survived the cut")
				}
				first.Close()
				return run(redial())
			}}, 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lent, hidden := tc.run.run(t, fx, false, false), tc.run.run(t, fx, false, true)
			if err := lent.diff(hidden); err != nil {
				t.Fatalf("lending changed the session: %v", err)
			}
			if spy := lent.spies[0]; tc.landed >= 0 && spy.landed != tc.landed {
				t.Fatalf("slot 0: %d frames landed in lent weights (%d offers), want %d", spy.landed, spy.lends, tc.landed)
			}
			if lent.rejoins != tc.rejoins {
				t.Fatalf("%d rejoins, want %d", lent.rejoins, tc.rejoins)
			}
			// A pipe lands a frame in the offer whether it was queued or
			// copied to the parked receiver, so it lands what TCP lands.
			t.Run("pipe", func(t *testing.T) {
				piped := tc.run.run(t, fx, true, false)
				if err := piped.diff(lent); err != nil {
					t.Fatalf("the pipe session differs from the TCP one: %v", err)
				}
				if spy := piped.spies[0]; tc.landed >= 0 && spy.landed != tc.landed {
					t.Fatalf("slot 0: %d frames landed in lent weights (%d offers), TCP lands %d", spy.landed, spy.lends, tc.landed)
				}
			})
		})
	}
}

// scriptedSession plays frames to a RunClient over loopback TCP, one at a
// time, and returns its replies (MsgDone gets none).
func scriptedSession(t *testing.T, fx *federatedFixture, hide bool, frames []*Message) []*Message {
	t.Helper()
	s, c := tcpPair(t)
	defer s.Close()
	var conn Conn = NewStreamConn(c)
	if hide {
		conn = struct{ Conn }{conn}
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(conn, fx.shards[0], fx.ccfg)
		done <- err
	}()
	peer := NewStreamConn(s)
	if m, err := peer.Recv(); err != nil || m.Type != MsgJoin {
		t.Fatalf("join: %v %v", m, err)
	}
	var replies []*Message
	for _, m := range frames {
		if err := peer.Send(m); err != nil {
			t.Fatal(err)
		}
		if m.Type == MsgDone {
			break
		}
		r, err := peer.Recv()
		if err != nil {
			t.Fatalf("reply to type %d round %d: %v", m.Type, m.Round, err)
		}
		replies = append(replies, r)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return replies
}

// TestLendUplinkSwitchKeepsRoundStartModel: a server that turns the uplink
// lossy mid-session does it with a frame the client may already have read
// into its weights — a full assign asking for q8, or the δ request after an
// elided one that did. That frame is now the reference the packed update is
// differenced against, so it must survive training: the network moves off it.
// Every reply equals the one a client that never lent sends.
func TestLendUplinkSwitchKeepsRoundStartModel(t *testing.T) {
	fx := newFixture(t, 1)
	model := func(seed int64) []float64 { return fx.builder(seed).GetFlat() }
	target := make([]float64, fx.builder(1).FeatureDim)
	const q8 = compress.SchemeInt8
	scripts := map[string][]*Message{
		"on a full assign": {
			{Type: MsgAssign, Round: 0, Params: model(1)},
			{Type: MsgDeltaReq, Round: 0, Params: model(2)},
			{Type: MsgAssign, Round: 1, Params: model(3), Delta: target, Want: q8},
			{Type: MsgDeltaReq, Round: 1, Params: model(4)},
			{Type: MsgAssign, Round: 2, Delta: target, Want: q8},
			{Type: MsgDone, Params: model(5)},
		},
		"on an elided assign": {
			{Type: MsgAssign, Round: 0, Params: model(1)},
			{Type: MsgDeltaReq, Round: 0, Params: model(2)},
			{Type: MsgAssign, Round: 1, Delta: target, Want: q8},
			{Type: MsgDeltaReq, Round: 1, Params: model(3)},
			{Type: MsgAssign, Round: 2, Delta: target, Want: q8},
			{Type: MsgDone, Params: model(4)},
		},
	}
	for name, frames := range scripts {
		t.Run(name, func(t *testing.T) {
			lent, hidden := scriptedSession(t, fx, false, frames), scriptedSession(t, fx, true, frames)
			packed := 0
			for i := range lent {
				if !sameMessage(lent[i], hidden[i]) {
					t.Fatalf("reply %d (type %d round %d) differs from the never-lent client's", i, lent[i].Type, lent[i].Round)
				}
				if lent[i].PParams.N > 0 {
					packed++
				}
			}
			if packed != 2 {
				t.Fatalf("%d packed updates, want 2", packed)
			}
		})
	}
}

// TestDenseClientRoundAllocatesNoModel is the regression test for the claim:
// over loopback TCP or a pipe a dense rFedAvg+ client allocates less than a
// quarter of one model per steady-state round — and, behind a conn that hides
// lend (a deadline or tracing wrapper), the δ request's read and nothing else
// model-sized — in fewer than 16 objects, none of them the local step's. The
// peer is a script that replays pre-built frames and discards the replies,
// so nothing model-sized is allocated on its side of the measurement: over
// TCP it skips the reply bytes, over a pipe it lends one buffer to its own
// Recv and sends each frame only once both ends are parked in Recv.
func TestDenseClientRoundAllocatesNoModel(t *testing.T) {
	const rounds, featureDim = 6, 12
	train := data.SynthMNIST(64, 1)
	// A wide first layer: a round's other allocations (frames and their
	// headers) stay far below a quarter of the model.
	builder := nn.NewMLP(train.Features(), 160, featureDim, train.Classes)
	model := builder(7).GetFlat()
	cfg := ClientConfig{Builder: builder, ModelSeed: 7, Seed: 3,
		LocalSteps: 1, BatchSize: 4, LR: opt.ConstLR(0.01), Lambda: 1e-3}
	var script [rounds][2]*Message
	for r := range script {
		script[r][0] = &Message{Type: MsgAssign, Round: int32(r), Delta: make([]float64, featureDim)}
		script[r][1] = &Message{Type: MsgDeltaReq, Round: int32(r), Params: model}
	}
	script[0][0] = &Message{Type: MsgAssign, Params: model}
	bye := &Message{Type: MsgDone, Params: model}
	all := []*Message{bye}
	for r := range script {
		all = append(all, script[r][:]...)
	}

	for _, tc := range []struct {
		name         string
		pipe, hide   bool
		modelsAtMost float64
	}{{"lend visible", false, false, 0.25}, {"lend hidden", false, true, 1.25}, {"pipe, lend visible", true, false, 0.25}} {
		t.Run(tc.name, func(t *testing.T) {
			var conn Conn
			var send func(*Message)
			var reply func()
			if tc.pipe {
				conn, send, reply = scriptedPipePeer(t, len(model))
			} else {
				conn, send, reply = scriptedTCPPeer(t, all...)
			}
			if tc.hide {
				conn = struct{ Conn }{conn}
			}
			done := make(chan error, 1)
			go func() {
				_, err := RunClient(conn, train, cfg)
				done <- err
			}()
			reply() // join
			var before, after runtime.MemStats
			for r := range script {
				if r == 2 {
					runtime.ReadMemStats(&before)
				}
				send(script[r][0])
				reply() // update
				send(script[r][1])
				reply() // δ
			}
			runtime.ReadMemStats(&after)
			send(bye)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			perRound := float64(after.TotalAlloc-before.TotalAlloc) / (rounds - 2)
			// What is left is per frame and per round — four Messages, the
			// target slice, the round's two closures — and nothing per step:
			// the parent's local loop alone made 12 objects here.
			if objects := float64(after.Mallocs-before.Mallocs) / (rounds - 2); objects >= 16 {
				t.Fatalf("%.1f objects allocated per steady-state round, want under 16", objects)
			}
			if models := perRound / float64(8*len(model)); models >= tc.modelsAtMost {
				t.Fatalf("%.0f bytes (%.2f models) allocated per steady-state round, want under %.2f", perRound, models, tc.modelsAtMost)
			} else {
				t.Logf("%.0f bytes per round, %.2f models", perRound, models)
			}
		})
	}
}

// scriptedTCPPeer is the TCP side of TestDenseClientRoundAllocatesNoModel:
// the client's conn, a send that writes msgs' frames — every one encoded
// before a measured window opens — and a reply that skips one frame's bytes
// without decoding them.
func scriptedTCPPeer(t *testing.T, msgs ...*Message) (Conn, func(*Message), func()) {
	s, c := tcpPair(t)
	t.Cleanup(func() { s.Close() })
	frames := map[*Message][]byte{}
	for _, m := range msgs {
		frames[m] = encodeFrame(t, m, false)
	}
	send := func(m *Message) {
		if _, err := s.Write(frames[m]); err != nil {
			t.Fatal(err)
		}
	}
	var prefix [4]byte
	reply := func() {
		if _, err := io.ReadFull(s, prefix[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(io.Discard, s, int64(binary.LittleEndian.Uint32(prefix[:]))); err != nil {
			t.Fatal(err)
		}
	}
	return NewStreamConn(c), send, reply
}

// scriptedPipePeer is the pipe side: the peer's end lends one model-sized
// buffer to each Recv, and a sender goroutine hands each frame to the pipe
// once the client is parked (so a model lands in its weights) and the peer is
// too (so the reply lands in the buffer).
func scriptedPipePeer(t *testing.T, nParams int) (Conn, func(*Message), func()) {
	a, b := Pipe()
	peer, client := a.(*inprocConn), b.(*inprocConn)
	t.Cleanup(func() { peer.Close() })
	frames := make(chan *Message)
	go func() {
		for m := range frames {
			// MsgDone gets no reply: nothing parks the peer for it.
			if !waitParked(client) || m.Type != MsgDone && !waitParked(peer) || peer.Send(m) != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { close(frames) })
	buf := make([]float64, nParams)
	reply := func() {
		peer.lend(buf)
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	// A sent frame is in flight until the reply's Recv parks.
	send := func(m *Message) { frames <- m }
	return client, send, reply
}
