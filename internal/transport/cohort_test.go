package transport

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Tests for silent non-members: a sampled round sends frames to its cohort
// and to nobody else, and a dead peer outside the cohort is still found.

// In a sampled rFedAvg+ session every round is cohort assigns + cohort
// δ-requests: no frame reaches a slot outside the cohort before MsgDone, and
// every round costs cohort × (assign + δ-request) bytes.
func TestCohortWireLaw(t *testing.T) {
	const clients, rounds, cohort = 8, 6, 2
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	header := (&Message{}).EncodedSize()
	assign, dreq := header+8*net.NumParams()+8*net.FeatureDim, header+8*net.NumParams()
	for _, deadline := range []time.Duration{0, 20 * time.Second} {
		var log frameLog
		res := elideRun{algo: AlgoRFedAvgPlus, server: log.wrap, shape: func(c *ServerConfig) {
			c.SampleRatio, c.Rounds, c.RoundDeadline = 0.25, rounds, deadline
		}}.run(t, fx)
		if len(res.Cohorts) != rounds || len(res.Evictions) != 0 {
			t.Fatalf("deadline %v: %d cohorts, evictions %+v", deadline, len(res.Cohorts), res.Evictions)
		}
		sent := map[[2]int]int{} // (round, type) → frames
		done := 0
		for _, f := range log.frames {
			if f.typ == MsgDone {
				done++
				continue
			}
			if !res.Cohorts[f.round].Mask[f.slot] {
				t.Errorf("deadline %v: round %d sent type %d to slot %d outside the cohort", deadline, f.round, f.typ, f.slot)
			}
			sent[[2]int{f.round, int(f.typ)}]++
		}
		for r := 0; r < rounds; r++ {
			if a, d := sent[[2]int{r, int(MsgAssign)}], sent[[2]int{r, int(MsgDeltaReq)}]; a != cohort || d != cohort {
				t.Errorf("deadline %v: round %d sent %d assigns and %d δ-requests, want %d each", deadline, r, a, d, cohort)
			}
			if got, want := log.downBytes(r), cohort*(assign+dreq); got != want {
				t.Errorf("deadline %v: round %d cost %d down bytes, want %d", deadline, r, got, want)
			}
		}
		if len(sent) != 2*rounds || done != clients {
			t.Errorf("deadline %v: %d (round, type) kinds and %d done frames, want %d and %d", deadline, len(sent), done, 2*rounds, clients)
		}
	}
}

// eofConn reports when its Recv first fails: the moment the server's pump
// learns the peer is gone.
type eofConn struct {
	Conn
	once sync.Once
	saw  chan struct{}
}

func (c *eofConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		c.once.Do(func() { close(c.saw) })
	}
	return m, err
}

// hookConn runs a hook before each frame it sends and, if recv is set, on
// each frame it reads before handing it on.
type hookConn struct {
	Conn
	before func(m *Message)
	recv   func(m *Message)
}

func (c *hookConn) Send(m *Message) error {
	c.before(m)
	return c.Conn.Send(m)
}

func (c *hookConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.recv != nil {
		c.recv(m)
	}
	return m, err
}

// readOnceConn closes read once its reader, the server's pump, asks for the
// frame after the first: the first has then been queued on the inbox.
type readOnceConn struct {
	Conn
	calls int
	read  chan struct{}
}

func (c *readOnceConn) Recv() (*Message, error) {
	if c.calls++; c.calls == 2 {
		close(c.read)
	}
	return c.Conn.Recv()
}

// A client that dies while outside the cohort is sent nothing, so no send can
// fail on it. The round boundary finds it through its pump's read error, with
// deadlines or without, frees the slot, and a rejoiner naming the slot takes
// it at that same boundary — within two boundaries of the death, which is the
// latest the skip-frame server managed. A rejoiner is placed at the first
// boundary after its handshake was handled, so the cohort's updates of the
// round the victim dies in are held back until the rejoiner's handshake is
// queued.
func TestCohortReapsDeadUnsampledPeer(t *testing.T) {
	for _, deadline := range []time.Duration{20 * time.Second, 0} {
		t.Run(fmt.Sprintf("deadline=%v", deadline), func(t *testing.T) { reapDeadUnsampledPeer(t, deadline) })
	}
}

func reapDeadUnsampledPeer(t *testing.T, deadline time.Duration) {
	const clients, rounds, closeRound = 8, 8, 2
	fx := newFixture(t, clients)
	// A seed under which one slot of the full fleet sits out every round up to
	// the last boundary the reap may land on.
	all := make([]bool, clients)
	for i := range all {
		all[i] = true
	}
	seed, victim := int64(0), -1
	for victim < 0 {
		seed++
		idle := append([]bool(nil), all...)
		for r := 0; r <= closeRound+2; r++ {
			for _, i := range engine.Sample(cohortRNG(seed, r), all, 0.25, 1) {
				idle[i] = false
			}
		}
		for i, is := range idle {
			if is {
				victim = i
				break
			}
		}
	}

	var first, second frameLog
	var ledger bytes.Buffer
	rejoin := make(chan Conn, 1)
	sawEOF := &eofConn{saw: make(chan struct{})}
	var victimConn Conn
	var kill sync.Once
	handshake := &readOnceConn{read: make(chan struct{})}
	var secondLife sync.WaitGroup
	secondLife.Add(1) // round closeRound always has a frame to hook
	res := elideRun{algo: AlgoRFedAvgPlus, mayFail: map[int]bool{victim: true},
		shape: func(c *ServerConfig) {
			c.Seed, c.SampleRatio, c.Rounds = seed, 0.25, rounds
			c.RoundDeadline, c.Rejoin = deadline, rejoin
			c.Ledger = telemetry.NewRunLedger(&ledger)
		},
		dial: func(i int, c Conn) Conn {
			if i == victim {
				victimConn = c
			}
			return c
		},
		server: func(i int, c Conn) Conn {
			if i == victim {
				sawEOF.Conn = first.wrap(i, c)
				return sawEOF
			}
			// A cohort update of round closeRound waits until the rejoiner's
			// handshake is queued.
			hold := func(m *Message) {
				if m.Type == MsgUpdate && int(m.Round) == closeRound {
					select {
					case <-handshake.read:
					case <-time.After(10 * time.Second):
					}
				}
			}
			// The first frame of round closeRound kills the victim and, once the
			// server side has read the EOF, queues its second life.
			return &hookConn{Conn: c, recv: hold, before: func(m *Message) {
				if int(m.Round) != closeRound {
					return
				}
				kill.Do(func() {
					victimConn.Close()
					<-sawEOF.saw
					s, c := Pipe()
					handshake.Conn = second.wrap(victim, s)
					rejoin <- handshake
					go func() {
						defer secondLife.Done()
						cfg := fx.ccfg
						cfg.Seed, cfg.ClientID = int64(100+victim), victim
						if _, err := RunClient(c, fx.shards[victim], cfg); err != nil {
							t.Errorf("rejoined client: %v", err)
						}
					}()
				})
			}}
		},
	}.run(t, fx)
	secondLife.Wait()

	if len(res.Evictions) != 1 || res.Evictions[0].Client != victim || !strings.Contains(res.Evictions[0].Reason, "peer gone") {
		t.Fatalf("evictions %+v, want slot %d reaped as a gone peer", res.Evictions, victim)
	}
	if res.Rejoins != 1 || res.RetriedRounds != 0 || len(res.RoundLosses) != rounds {
		t.Fatalf("%d rejoins, %d retries, %d rounds; want 1, 0, %d", res.Rejoins, res.RetriedRounds, len(res.RoundLosses), rounds)
	}
	if len(first.frames) != 0 {
		t.Fatalf("the dead slot was sent %d frames, want none: %+v", len(first.frames), first.frames)
	}
	if n := len(second.frames); n == 0 || second.frames[n-1].typ != MsgDone {
		t.Fatalf("the rejoined conn's frames do not end in done: %+v", second.frames)
	}
	evictedAt, rejoinedAt := -1, -1
	for _, l := range decodeLedgerFile(t, &ledger) {
		if len(l.Evicted) == 1 && l.Evicted[0] == victim {
			evictedAt = l.Round
		}
		if l.Rejoins == 1 {
			rejoinedAt = l.Round
		}
	}
	if evictedAt != res.Evictions[0].Round || rejoinedAt != evictedAt || evictedAt <= closeRound || evictedAt > closeRound+2 {
		t.Fatalf("ledger shows the reap before round %d and the rejoin before round %d (eviction round %d), want one boundary in (%d, %d]",
			evictedAt, rejoinedAt, res.Evictions[0].Round, closeRound, closeRound+2)
	}
}
