package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrTimeout marks a Send/Recv that exceeded its deadline. The server
// treats it like any other connection error: the client is evicted and the
// round continues over the survivors.
var ErrTimeout = errors.New("transport: deadline exceeded")

// ErrClosed marks an operation on a deadline-wrapped conn after Close.
var ErrClosed = errors.New("transport: connection closed")

// deadlineConn is how a server with RoundDeadline set holds each client conn:
// every phase sends and receives under its phase context (SendContext,
// RecvContext). A background pump goroutine owns the inner Recv, so a receive
// abandoned when its context expires does not lose its frame: the frame stays
// buffered and the next receive observes it. The pump exits when the inner
// connection errors or the wrapper is closed. Send and the byte counters pass
// through to the inner conn.
type deadlineConn struct {
	Conn

	recvCh chan recvResult
	// readErr is the inner Recv error that ended the pump, nil while the peer
	// is readable: how an owner that is not receiving learns the peer is gone.
	readErr   atomic.Pointer[error]
	closed    chan struct{}
	closeOnce sync.Once
}

type recvResult struct {
	m   *Message
	err error
}

// newDeadlineConn wraps inner and starts its receive pump.
func newDeadlineConn(inner Conn) *deadlineConn {
	c := &deadlineConn{
		Conn:   inner,
		recvCh: make(chan recvResult, 4),
		closed: make(chan struct{}),
	}
	go c.pump()
	return c
}

func (c *deadlineConn) pump() {
	for {
		m, err := c.Conn.Recv()
		if err != nil {
			gone := err // a copy: &err would heap-allocate err on every frame
			c.readErr.Store(&gone)
		}
		select {
		case c.recvCh <- recvResult{m, err}:
			if err != nil {
				return
			}
		case <-c.closed:
			return
		}
	}
}

// Recv receives with no bound, through the pump.
func (c *deadlineConn) Recv() (*Message, error) { return c.RecvContext(context.Background()) }

// RecvContext receives, giving up when ctx expires. The in-flight frame is
// not lost on expiry; it is delivered to the next receive call.
func (c *deadlineConn) RecvContext(ctx context.Context) (*Message, error) {
	// Prefer an already-buffered frame over racing a done context.
	select {
	case r := <-c.recvCh:
		return r.m, r.err
	default:
	}
	select {
	case r := <-c.recvCh:
		return r.m, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: recv: %v", ErrTimeout, ctx.Err())
	case <-c.closed:
		return nil, ErrClosed
	}
}

// SendContext sends, giving up when ctx expires. A send abandoned on
// timeout keeps running in the background until the inner connection is
// closed, so callers that see ErrTimeout should Close the conn (the server
// does: eviction closes it), which unblocks the straggler.
func (c *deadlineConn) SendContext(ctx context.Context, m *Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	if ctx.Done() == nil {
		return c.Conn.Send(m)
	}
	done := make(chan error, 1)
	go func() { done <- c.Conn.Send(m) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%w: send: %v", ErrTimeout, ctx.Err())
	case <-c.closed:
		return ErrClosed
	}
}

// Close closes the wrapper and the inner connection, unblocking the pump
// and any abandoned background send.
func (c *deadlineConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// recvCtx receives from a session conn under ctx. A phase context can expire
// only when deadlines are on, and then every session conn is a deadlineConn;
// an unwrapped conn is only ever read with no bound.
func recvCtx(ctx context.Context, c Conn) (*Message, error) {
	if dc, ok := c.(*deadlineConn); ok {
		return dc.RecvContext(ctx)
	}
	return c.Recv()
}

// sendCtx sends on a session conn under ctx, mirroring recvCtx.
func sendCtx(ctx context.Context, c Conn, m *Message) error {
	if dc, ok := c.(*deadlineConn); ok {
		return dc.SendContext(ctx, m)
	}
	return c.Send(m)
}
