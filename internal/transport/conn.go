package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Conn is a bidirectional, message-oriented connection with byte
// accounting.
//
// Buffer ownership: Send reads m's payload slices in place until it returns,
// and not after: once it returns, m and its slices are the caller's again.
// Close unblocks a Send in progress, which then returns an error. A message
// returned by Recv belongs to the receiver: no other endpoint shares its
// slices.
//
// A dense RunClient builds on those two rules to hold one model-sized buffer,
// its network's weights. A received dense model may become the weights
// (nn.Network.AdoptFlat, no copy). The update is sent from the weights, so
// they are not touched until Send returns. And an unwrapped stream or pipe
// conn is lent adopted weights before each Recv (lend): a lent slice may come
// back as m.Params, written only by that conn while its owner waits in that
// Recv. One kind of buffer is pooled: a pipe's queued copy of dense Params
// comes from tensor's float pool and is flagged on the *Message, so it passes
// through any wrapper. Two places put such vectors back: the server, for the
// fresh updates a round aggregated, when it closes (session.closeRound), and
// a pipe's Recv, for a queued copy it moved into the receiver's offer. Every
// other received buffer stays its receiver's, garbage once dropped.
//
// A connection carries each global model once: after a MsgDeltaReq the
// client keeps that model loaded and the next MsgAssign may arrive
// payload-less (see MsgAssign). That state is per connection — a new Conn,
// rejoin included, starts with nothing held.
type Conn interface {
	Send(m *Message) error
	Recv() (*Message, error)
	Close() error
	// BytesSent and BytesReceived report cumulative traffic through this
	// endpoint.
	BytesSent() int64
	BytesReceived() int64
}

// streamConn frames messages over any io.ReadWriteCloser (TCP, pipes).
type streamConn struct {
	rw io.ReadWriteCloser
	// sendMu guards fs and keeps frames whole when goroutines share the conn:
	// off TCP a frame is several Writes.
	sendMu   sync.Mutex
	fs       frameScratch
	sent     atomic.Int64
	received atomic.Int64
	// lent is the receiver's offer for the next Recv, made and consumed on the
	// goroutine that calls it (see lend).
	lent []float64
}

// NewStreamConn wraps a byte stream in the message protocol.
func NewStreamConn(rw io.ReadWriteCloser) Conn { return &streamConn{rw: rw} }

func (c *streamConn) Send(m *Message) error {
	c.sendMu.Lock()
	err := writeFrame(c.rw, m, &c.fs, hostLE)
	c.sendMu.Unlock()
	if err != nil {
		return err
	}
	c.sent.Add(int64(m.EncodedSize()))
	return nil
}

// lend offers v to the next Recv, and to that one only: a frame whose dense
// Params section holds exactly len(v) floats is read into v and comes back
// with m.Params aliasing it; any other frame leaves v untouched. The caller
// must be ready to lose v's contents to such a frame — a failed read included —
// and calls lend on the goroutine that then calls Recv.
func (c *streamConn) lend(v []float64) { c.lent = v }

func (c *streamConn) Recv() (*Message, error) {
	lent := c.lent
	c.lent = nil
	m, err := readFrameInto(c.rw, hostLE, lent)
	if err != nil {
		return nil, err
	}
	c.received.Add(int64(m.EncodedSize()))
	return m, nil
}

func (c *streamConn) Close() error         { return c.rw.Close() }
func (c *streamConn) BytesSent() int64     { return c.sent.Load() }
func (c *streamConn) BytesReceived() int64 { return c.received.Load() }

// Dial connects to a federated server over TCP.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewStreamConn(nc), nil
}

// Listener accepts federated clients over TCP.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener; addr ":0" picks a free port.
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next client connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.l.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewStreamConn(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// inprocConn is one endpoint of an in-process connection pair.
type inprocConn struct {
	in, out  *pipeQueue
	sent     atomic.Int64
	received atomic.Int64
	// lent is the receiver's offer for the next Recv, made and consumed on the
	// goroutine that calls it (see lend).
	lent []float64
	// at is the stamp of the last frame Recv returned: a virtual client
	// end's clock. now is a virtual pipe end's clock, the stamp of each frame
	// it sends; nil on a real pipe, whose stamps are all 0 (see newPipe).
	at  time.Duration
	now *time.Duration
}

// pipeDepth is how many frames one direction of a Pipe holds before Send
// waits for the receiver.
const pipeDepth = 16

// pipeQueue is one direction of a Pipe: a monitor over the frames sent and
// not yet received.
type pipeQueue struct {
	mu     sync.Mutex
	cond   sync.Cond // broadcast when a frame is queued or taken, and on close
	frames [pipeDepth]*Message
	head   int // frames[head] is the oldest of n queued, in ring order
	n      int
	// parked is set while the receiver waits in Recv on an empty queue, and
	// lent is its offer until a Send copies a frame into it.
	parked bool
	lent   []float64
	closed bool
}

func newPipeQueue() *pipeQueue {
	q := new(pipeQueue)
	q.cond.L = &q.mu
	return q
}

// Pipe returns two connected in-process endpoints, used by tests and by
// single-process multi-goroutine deployments. Each direction queues up to 16
// frames before Send waits, which the synchronous round protocol never
// reaches; a Send to a receiver already parked in Recv never waits. Closing
// either endpoint closes both.
func Pipe() (Conn, Conn) {
	a2b, b2a := newPipeQueue(), newPipeQueue()
	return &inprocConn{in: b2a, out: a2b}, &inprocConn{in: a2b, out: b2a}
}

// newPipe is Pipe in virtual time: the server end stamps every frame with
// *now, the session's clock, and the client end with the stamp of the last
// frame it received, advanced by its FaultConn's delays. The stamp rides on
// the frame (Message.at).
func newPipe(now *time.Duration) (server, client Conn) {
	sc, cc := Pipe()
	s, c := sc.(*inprocConn), cc.(*inprocConn)
	s.now, c.now = now, &c.at
	return s, c
}

// Send delivers a copy: a TCP conn naturally isolates the two endpoints
// through encode/decode, and pipes must match, or every pipe client of one
// broadcast would share the server's backing slice by reference. A frame for
// a receiver parked on an empty queue with an offer it fits is copied into
// the lent slice — its owner is blocked until this frame wakes it — and any
// other frame is queued as a Clone whose dense Params come from the float
// pool (Message.pooled), for Recv to hand on or copy into an offer. A
// virtual end stamps the copy with its clock (Message.at).
func (c *inprocConn) Send(m *Message) error {
	q := c.out
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == pipeDepth && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return fmt.Errorf("transport: send on closed pipe")
	}
	shallow := *m
	shallow.Params = nil
	d := shallow.Clone()
	switch lent := q.lent; {
	case len(lent) > 0 && len(m.Params) == len(lent):
		d.Params = lent
		q.lent = nil
	case len(m.Params) > 0:
		d.Params, d.pooled = tensor.GetFloats(len(m.Params)), true
	}
	copy(d.Params, m.Params)
	if c.now != nil {
		d.at = *c.now
	}
	q.frames[(q.head+q.n)%pipeDepth] = d
	q.n++
	q.cond.Broadcast()
	c.sent.Add(int64(m.EncodedSize()))
	return nil
}

// lend is streamConn.lend for a pipe: a Send copies into the offer if this
// Recv finds nothing queued and parks, else Recv copies the queued frame in.
func (c *inprocConn) lend(v []float64) { c.lent = v }

// Recv returns the oldest queued frame, waiting for one; after Close it
// drains what is queued, then reports io.EOF. A queued frame lands in an offer
// it fits as it would off a stream: its Params are copied into the lent slice
// and the pooled copy goes back to the float pool.
func (c *inprocConn) Recv() (*Message, error) {
	lent := c.lent
	c.lent = nil
	m, err := c.take(lent)
	if err == nil && m.pooled && len(lent) > 0 && len(m.Params) == len(lent) {
		copy(lent, m.Params)
		tensor.PutFloats(m.Params)
		m.Params, m.pooled = lent, false
	}
	return m, err
}

// take dequeues the oldest frame, waiting for one with lent as the offer a
// Send may copy into directly.
func (c *inprocConn) take(lent []float64) (*Message, error) {
	q := c.in
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 && !q.closed {
		q.parked, q.lent = true, lent
		for q.n == 0 && !q.closed {
			q.cond.Wait()
		}
		q.parked, q.lent = false, nil
	}
	if q.n == 0 {
		return nil, io.EOF
	}
	m := q.frames[q.head]
	c.at = m.at
	q.frames[q.head] = nil
	q.head = (q.head + 1) % pipeDepth
	q.n--
	q.cond.Broadcast()
	c.received.Add(int64(m.EncodedSize()))
	return m, nil
}

func (c *inprocConn) Close() error {
	for _, q := range [2]*pipeQueue{c.in, c.out} {
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	return nil
}

func (c *inprocConn) BytesSent() int64     { return c.sent.Load() }
func (c *inprocConn) BytesReceived() int64 { return c.received.Load() }
