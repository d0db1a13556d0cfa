package transport

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
)

// FaultPlan is a seeded schedule of injected faults around a Conn. All
// probabilities are per operation in [0, 1]; the zero value injects
// nothing. The same (plan, seed) always produces the same fault sequence,
// so chaos tests are reproducible.
type FaultPlan struct {
	Seed int64

	// DelayProb delays the operation by a uniform duration in (MinDelay,
	// MaxDelay]; applies to both directions. A delay is virtual: it advances
	// the clock of the virtual pipe end the FaultConn wraps (ServePipes), and
	// on any other conn the operation fails. A MinDelay at or above the
	// server's deadline makes the slow-client eviction deterministic in tests.
	DelayProb float64
	MinDelay  time.Duration
	MaxDelay  time.Duration
	// DuplicateProb sends an outgoing message twice.
	DuplicateProb float64
	// CorruptProb overwrites one element of an outgoing Params/Delta with
	// NaN — the server-side finite-value validation must evict the sender.
	CorruptProb float64
	// DisconnectProb abruptly closes the connection instead of performing
	// the operation (a crash). Subsequent operations fail.
	DisconnectProb float64
	// DisconnectAfterOps, if > 0, forces the crash deterministically after
	// that many Send/Recv calls.
	DisconnectAfterOps int
	// StragglerDelay is a persistent per-client slowdown: every operation
	// takes this long, unconditionally and on top of any DelayProb roll.
	// Unlike the i.i.d. per-op delay it models heterogeneous hardware — the
	// same client is slow every round — which is what asynchronous buffered
	// aggregation is designed to route around.
	StragglerDelay time.Duration

	// SignFlipUpdate turns the client Byzantine: every outgoing MsgUpdate
	// is rewritten to w' = g − (w − g), the mirror of the honest update
	// around the last received global g. The tampered update keeps the
	// honest norm and reported loss, so only direction-based detection can
	// see it.
	SignFlipUpdate bool
	// ScaleUpdate, when > 0, rewrites outgoing updates to w' = g + C(w−g)
	// — the scaled-update (model-boosting) attack. Composes with
	// SignFlipUpdate (the factor becomes −C). Both modes need the dense
	// update path: they rewrite Params against the last dense model payload
	// received and leave compressed frames untouched.
	ScaleUpdate float64
}

// FaultConn wraps a Conn with the injected-fault schedule of a FaultPlan.
// It never waits: its delays move a virtual pipe end's clock. It is safe for
// the one-writer/one-reader usage pattern of the protocol and guards its RNG
// for -race runs.
type FaultConn struct {
	inner Conn
	plan  FaultPlan

	mu   sync.Mutex
	rng  *rand.Rand
	ops  int
	dead bool
	// ref is the last dense global received (MsgAssign or, when the next
	// assign omits the model, MsgDeltaReq) — the mirror point of the Byzantine
	// update rewrites.
	ref []float64
}

// NewFaultConn wraps inner with plan's fault schedule.
func NewFaultConn(inner Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{
		inner: inner,
		plan:  plan,
		rng:   rand.New(rand.NewSource(plan.Seed*0x9E3779B9 + 1)),
	}
}

// step rolls the shared per-operation faults (crash, delay) and reports
// whether the connection is still alive. The returned rolls are drawn under
// the lock so concurrent Send/Recv stay deterministic per direction count.
func (c *FaultConn) step() (delay time.Duration, alive bool, roll func(p float64) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, false, nil
	}
	c.ops++
	crashed := (c.plan.DisconnectAfterOps > 0 && c.ops > c.plan.DisconnectAfterOps) ||
		(c.plan.DisconnectProb > 0 && c.rng.Float64() < c.plan.DisconnectProb)
	if crashed {
		c.dead = true
		c.inner.Close()
		return 0, false, nil
	}
	if c.plan.DelayProb > 0 && c.plan.MaxDelay > c.plan.MinDelay && c.rng.Float64() < c.plan.DelayProb {
		delay = c.plan.MinDelay + time.Duration(1+c.rng.Int63n(int64(c.plan.MaxDelay-c.plan.MinDelay)))
	}
	delay += c.plan.StragglerDelay
	return delay, true, func(p float64) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return p > 0 && c.rng.Float64() < p
	}
}

// Send applies the outgoing fault schedule, then forwards to the inner conn.
func (c *FaultConn) Send(m *Message) error {
	delay, alive, roll := c.step()
	if !alive {
		return fmt.Errorf("transport: fault injection: connection crashed")
	}
	if err := c.advance(delay); err != nil {
		return err
	}
	if m.Type == MsgUpdate && len(m.Params) > 0 {
		// ref is empty unless the plan is Byzantine (see Recv).
		c.mu.Lock()
		ref := c.ref
		c.mu.Unlock()
		if len(ref) == len(m.Params) {
			m = m.Clone()
			engine.Tamper(m.Params, ref, c.plan.SignFlipUpdate, c.plan.ScaleUpdate)
		}
	}
	if roll(c.plan.CorruptProb) {
		m = m.Clone()
		switch {
		case len(m.Params) > 0:
			m.Params[len(m.Params)/2] = math.NaN()
		case len(m.PParams.Data) > 0:
			// Flip every bit of one payload byte: a compressed frame is
			// corrupted in its packed bytes, not its (validated) header.
			m.PParams.Data[len(m.PParams.Data)/2] ^= 0xFF
		case len(m.Delta) > 0:
			m.Delta[len(m.Delta)/2] = math.NaN()
		case len(m.PDelta.Data) > 0:
			m.PDelta.Data[len(m.PDelta.Data)/2] ^= 0xFF
		default:
			m.Loss = math.Inf(1)
		}
	}
	if err := c.inner.Send(m); err != nil {
		return err
	}
	if roll(c.plan.DuplicateProb) {
		return c.inner.Send(m)
	}
	return nil
}

// Recv applies the incoming fault schedule, then forwards to the inner conn.
func (c *FaultConn) Recv() (*Message, error) {
	delay, alive, _ := c.step()
	if !alive {
		return nil, fmt.Errorf("transport: fault injection: connection crashed")
	}
	m, err := c.inner.Recv()
	if err == nil {
		err = c.advance(delay) // after the Recv, which sets the clock to the frame's stamp
	}
	if err != nil {
		return nil, err
	}
	if (c.plan.SignFlipUpdate || c.plan.ScaleUpdate > 0) && (m.Type == MsgAssign || m.Type == MsgDeltaReq) && len(m.Params) > 0 {
		c.mu.Lock()
		c.ref = append(c.ref[:0], m.Params...)
		c.mu.Unlock()
	}
	return m, nil
}

// advance moves the clock of the virtual pipe end c wraps (ServePipes) by
// delay. A delay on any other conn is an error: it has no clock to advance.
func (c *FaultConn) advance(delay time.Duration) error {
	if delay <= 0 {
		return nil
	}
	p, ok := c.inner.(*inprocConn)
	if !ok || p.now == nil {
		return fmt.Errorf("transport: fault injection: a %v delay needs a virtual pipe end", delay)
	}
	*p.now += delay
	return nil
}

// Close closes the inner connection and marks the wrapper dead.
func (c *FaultConn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.inner.Close()
}

// BytesSent reports the inner connection's counter.
func (c *FaultConn) BytesSent() int64 { return c.inner.BytesSent() }

// BytesReceived reports the inner connection's counter.
func (c *FaultConn) BytesReceived() int64 { return c.inner.BytesReceived() }
