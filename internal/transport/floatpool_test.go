package transport

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// skewedFixture is a federation of clients slots with quantity-skewed shards
// of a small MLP's data.
func skewedFixture(t *testing.T, clients int) *federatedFixture {
	t.Helper()
	fx := newFixture(t, 1)
	train := data.SynthMNIST(12*clients, 1)
	parts := data.PartitionQuantitySkew(train.Len(), clients, 0.5, rand.New(rand.NewSource(3)))
	fx.shards = make([]*data.Dataset, clients)
	for k, idx := range parts {
		fx.shards[k] = train.Subset(idx)
	}
	fx.builder = nn.NewMLP(train.Features(), 8, 6, train.Classes)
	fx.ccfg.Builder = fx.builder
	return fx
}

// serveOver runs one seeded synchronous rFedAvg+ session of fx live on the
// conn pairs mk makes, each client end behind a FaultConn where plans names
// the slot.
func serveOver(t *testing.T, fx *federatedFixture, rounds int, plans map[int]FaultPlan, mk func() (server, client Conn)) *ServerResult {
	t.Helper()
	model := fx.builder(fx.ccfg.ModelSeed)
	res, err := serveLive(t, ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: model.GetFlat(),
		FeatureDim: model.FeatureDim, Seed: 5,
	}, fx.shards, fx.client, plans, mk)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return res
}

// Pipes deliver updates in float-pool vectors the server puts back when the
// round closes; TCP reads allocate and never pool. A session of 66 slots with
// an eviction must aggregate the pooled updates and the fresh reads to the
// same bits.
func TestPipeSessionMatchesTCP(t *testing.T) {
	const clients, rounds = 66, 3
	fx := skewedFixture(t, clients)
	plans := map[int]FaultPlan{5: {Seed: 5, DisconnectAfterOps: 5}} // dies entering round 1
	tcp := serveOver(t, fx, rounds, plans, func() (Conn, Conn) {
		s, c := tcpPair(t)
		return NewStreamConn(s), NewStreamConn(c)
	})
	pipe := serveOver(t, fx, rounds, plans, Pipe)
	for name, res := range map[string]*ServerResult{"tcp": tcp, "pipe": pipe} {
		if len(res.Evictions) != 1 || res.Evictions[0].Client != 5 {
			t.Fatalf("%s: evictions %+v, want client 5 only", name, res.Evictions)
		}
		if len(res.RoundLosses) != rounds {
			t.Fatalf("%s: %d rounds, want %d", name, len(res.RoundLosses), rounds)
		}
	}
	if !sameFloatBits(pipe.RoundLosses, tcp.RoundLosses) {
		t.Fatalf("round losses: pipe %v, tcp %v", pipe.RoundLosses, tcp.RoundLosses)
	}
	if !sameFloatBits(pipe.FinalParams, tcp.FinalParams) {
		t.Fatal("pipe and tcp sessions ended on different models")
	}
}

// poolTap logs every frame that reached an end of the session's pipes in a
// float-pool vector, in arrival order, and what each client sent as its
// updates. The logged messages and vectors stay reachable, so no array's
// address is reused by a later allocation.
type poolTap struct {
	mu     sync.Mutex
	pooled []tapped
	sent   map[[2]int]string // (client, round) → hashFloats of the update sent
	// assigned is the highest round the server has assigned; done is set by
	// its first MsgDone.
	cond     sync.Cond
	assigned int
	done     bool
}

type tapped struct {
	m      *Message
	server bool
	vec    *float64 // m.Params' array as delivered
}

func (p *poolTap) recv(m *Message, server bool) {
	if !m.pooled {
		return
	}
	p.mu.Lock()
	p.pooled = append(p.pooled, tapped{m: m, server: server, vec: unsafe.SliceData(m.Params)})
	p.mu.Unlock()
}

// tapServer is a server end: it logs pooled frames and announces assigns.
type tapServer struct {
	Conn
	tap *poolTap
}

func (c *tapServer) Send(m *Message) error {
	p := c.tap
	p.mu.Lock()
	switch m.Type {
	case MsgAssign:
		p.assigned = max(p.assigned, int(m.Round))
	case MsgDone:
		p.done = true
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	return c.Conn.Send(m)
}

func (c *tapServer) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.tap.recv(m, true)
	}
	return m, err
}

// tapClient is a client end: it logs pooled frames and hashes each update
// it sends. A straggler's round-r update leaves only once the server has
// assigned round r+1 — its round closed without it — or finished.
type tapClient struct {
	Conn
	tap       *poolTap
	id        int
	straggler bool
}

func (c *tapClient) Send(m *Message) error {
	if m.Type == MsgUpdate {
		p := c.tap
		p.mu.Lock()
		p.sent[[2]int{c.id, int(m.Round)}] = hashFloats(m.Params)
		for c.straggler && p.assigned <= int(m.Round) && !p.done {
			p.cond.Wait()
		}
		p.mu.Unlock()
	}
	return c.Conn.Send(m)
}

func (c *tapClient) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.tap.recv(m, false)
	}
	return m, err
}

// A parked update is never put back: in a buffered session over pipes the
// straggler's updates land after their round closed, wait parked while the
// other updates are released and their vectors reused by later frames, and
// fold in holding what the client sent. Every frame the server released has
// nil Params; every other pooled frame still holds its own vector.
func TestPipeParkedUpdateNotRecycled(t *testing.T) {
	const clients, straggler, rounds = 4, 2, 6
	fx := newFixture(t, clients)
	tap := &poolTap{sent: map[[2]int]string{}, assigned: -1}
	tap.cond.L = &tap.mu
	reg := telemetry.NewRegistry()
	model := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm: AlgoRFedAvgPlus, Rounds: rounds, InitialParams: model.GetFlat(),
		FeatureDim: model.FeatureDim, Seed: 5, BufferK: clients - 1, StalenessLambda: 0.5,
		MinClients: 2, Metrics: reg,
	}
	server := make([]Conn, clients)
	var ends []Conn
	var wg sync.WaitGroup
	for i := range clients {
		s, c := Pipe()
		ends = append(ends, s)
		server[i] = &tapServer{Conn: s, tap: tap}
		client := &tapClient{Conn: c, tap: tap, id: i, straggler: i == straggler}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunClient(client, fx.shards[i], fx.client(i)); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}()
	}
	res, err := Serve(scfg, server)
	if err == nil {
		// The straggler's last update leaves once MsgDone is on its way,
		// maybe after Serve returned: let every client end before the
		// server's ends close under it.
		wg.Wait()
	}
	for _, s := range ends {
		s.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if len(res.RoundLosses) != rounds || len(res.Evictions) != 0 {
		t.Fatalf("%d rounds, evictions %+v; want %d, none", len(res.RoundLosses), res.Evictions, rounds)
	}
	if folds := reg.Counter("rfl_late_folds_total", "").Value(); folds < 1 {
		t.Fatal("no late update was folded")
	}

	// holder[v] is the last pooled frame delivered in vector v. A vector
	// comes back only from a server-side update frame that released it. A
	// server pump may still be draining its closed pipe: read the log under
	// its lock.
	tap.mu.Lock()
	pooled := slices.Clone(tap.pooled)
	tap.mu.Unlock()
	holder := map[*float64]int{}
	reused, parked := 0, 0
	for k, f := range pooled {
		if prev, ok := holder[f.vec]; ok {
			reused++
			if g := pooled[prev]; !g.server || g.m.pooled {
				t.Fatalf("frame %d reuses the vector of frame %d (type %d, server end %v), which never released it", k, prev, g.m.Type, g.server)
			}
		}
		holder[f.vec] = k
		if !f.server || f.m.Type != MsgUpdate {
			continue
		}
		client := int(f.m.ClientID)
		if !f.m.pooled { // released when its round closed
			if f.m.Params != nil {
				t.Fatalf("client %d's round-%d update was released but still holds Params", client, f.m.Round)
			}
			if client == straggler {
				t.Fatalf("the straggler's round-%d update was released; it could only have been parked", f.m.Round)
			}
			continue
		}
		if client != straggler {
			t.Fatalf("client %d's round-%d update was aggregated fresh and never released", client, f.m.Round)
		}
		parked++
		if got, want := hashFloats(f.m.Params), tap.sent[[2]int{client, int(f.m.Round)}]; got != want {
			t.Fatalf("parked round-%d update changed after it arrived: hash %s, sent %s", f.m.Round, got, want)
		}
	}
	if parked == 0 || reused == 0 {
		t.Fatalf("%d parked straggler updates, %d reused vectors; want both > 0", parked, reused)
	}
}
