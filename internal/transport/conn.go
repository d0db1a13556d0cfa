package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is a bidirectional, message-oriented connection with byte
// accounting.
//
// Buffer ownership: Send reads m's payload slices in place until it returns
// — after a deadline-abandoned send, until Close — so never overwrite a
// slice handed to Send; swap in a new one. A message returned by Recv
// belongs to the receiver: no other endpoint shares its slices.
//
// A dense RunClient builds on those two rules to hold one model-sized buffer,
// its network's weights. A received dense model may become the weights
// (nn.Network.AdoptFlat, no copy). The update is sent from the weights, so
// they are not touched until Send returns. And a conn that reads frames
// itself is lent adopted weights before each Recv (streamConn.lend): a lent
// slice may come back as m.Params. Nothing is pooled — a buffer kept between
// rounds would show in the heap the benchmark reads there; the weights are
// the one model-sized thing a client keeps anyway.
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
	// sendMu guards fs and keeps frames whole: off TCP a frame is several
	// Writes, and a deadline-abandoned Send may outlive the next one's start.
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
	in       chan *Message
	out      chan *Message
	sent     atomic.Int64
	received atomic.Int64
	closed   chan struct{}
}

// Pipe returns two connected in-process endpoints, used by tests and by
// single-process multi-goroutine deployments. The channel buffer is large
// enough that the synchronous round protocol never deadlocks.
func Pipe() (Conn, Conn) {
	a2b := make(chan *Message, 16)
	b2a := make(chan *Message, 16)
	closed := make(chan struct{})
	a := &inprocConn{in: b2a, out: a2b, closed: closed}
	b := &inprocConn{in: a2b, out: b2a, closed: closed}
	return a, b
}

func (c *inprocConn) Send(m *Message) error {
	// Check closure first: with a buffered channel the select below could
	// otherwise pick the send arm even after Close.
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed pipe")
	default:
	}
	// Deliver a deep copy: a TCP conn naturally isolates the two endpoints
	// through encode/decode, and pipes must match, or every pipe client of
	// one broadcast would share the server's backing slice by reference.
	select {
	case <-c.closed:
		return fmt.Errorf("transport: send on closed pipe")
	case c.out <- m.Clone():
		c.sent.Add(int64(m.EncodedSize()))
		return nil
	}
}

func (c *inprocConn) Recv() (*Message, error) {
	select {
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			c.received.Add(int64(m.EncodedSize()))
			return m, nil
		default:
			return nil, io.EOF
		}
	case m := <-c.in:
		c.received.Add(int64(m.EncodedSize()))
		return m, nil
	}
}

func (c *inprocConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

func (c *inprocConn) BytesSent() int64     { return c.sent.Load() }
func (c *inprocConn) BytesReceived() int64 { return c.received.Load() }
