package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTimeout marks a Send/Recv that exceeded its deadline. The server
// treats it like any other connection error: the client is evicted and the
// round continues over the survivors.
var ErrTimeout = errors.New("transport: deadline exceeded")

// ErrClosed marks an operation on a DeadlineConn after Close.
var ErrClosed = errors.New("transport: connection closed")

// DeadlineConn wraps any Conn with per-operation Send/Recv timeouts and
// context-based variants. A background pump goroutine owns the inner Recv,
// so a timed-out Recv does not lose its message: the frame stays buffered
// and the next Recv (or RecvContext) call observes it. The pump exits when
// the inner connection errors or the wrapper is closed.
type DeadlineConn struct {
	inner Conn
	// Timeouts are stored as atomic nanosecond counts so the adaptive
	// deadline controller can retune a live connection (SetTimeouts) while
	// the protocol goroutines Send/Recv on it.
	sendTimeout atomic.Int64
	recvTimeout atomic.Int64

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

// NewDeadlineConn wraps inner with the given Send and Recv timeouts; a zero
// timeout disables the bound for that direction (context-based deadlines
// via SendContext/RecvContext still apply).
func NewDeadlineConn(inner Conn, sendTimeout, recvTimeout time.Duration) *DeadlineConn {
	c := &DeadlineConn{
		inner:  inner,
		recvCh: make(chan recvResult, 4),
		closed: make(chan struct{}),
	}
	c.sendTimeout.Store(int64(sendTimeout))
	c.recvTimeout.Store(int64(recvTimeout))
	go c.pump()
	return c
}

// SetTimeouts retunes both per-operation bounds; safe to call concurrently
// with Send/Recv. A zero value disables the bound for that direction, and a
// negative value leaves the current bound unchanged.
func (c *DeadlineConn) SetTimeouts(sendTimeout, recvTimeout time.Duration) {
	if sendTimeout >= 0 {
		c.sendTimeout.Store(int64(sendTimeout))
	}
	if recvTimeout >= 0 {
		c.recvTimeout.Store(int64(recvTimeout))
	}
}

func (c *DeadlineConn) pump() {
	for {
		m, err := c.inner.Recv()
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

// Recv receives with the configured timeout.
func (c *DeadlineConn) Recv() (*Message, error) {
	ctx := context.Background()
	if to := time.Duration(c.recvTimeout.Load()); to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	return c.RecvContext(ctx)
}

// RecvContext receives, giving up when ctx expires. The in-flight frame is
// not lost on expiry; it is delivered to the next receive call.
func (c *DeadlineConn) RecvContext(ctx context.Context) (*Message, error) {
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

// Send sends with the configured timeout.
func (c *DeadlineConn) Send(m *Message) error {
	ctx := context.Background()
	if to := time.Duration(c.sendTimeout.Load()); to > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	return c.SendContext(ctx, m)
}

// SendContext sends, giving up when ctx expires. A send abandoned on
// timeout keeps running in the background until the inner connection is
// closed, so callers that see ErrTimeout should Close the conn (the server
// does: eviction closes it), which unblocks the straggler.
func (c *DeadlineConn) SendContext(ctx context.Context, m *Message) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	if ctx.Done() == nil {
		return c.inner.Send(m)
	}
	done := make(chan error, 1)
	go func() { done <- c.inner.Send(m) }()
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
func (c *DeadlineConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// BytesSent reports the inner connection's counter.
func (c *DeadlineConn) BytesSent() int64 { return c.inner.BytesSent() }

// BytesReceived reports the inner connection's counter.
func (c *DeadlineConn) BytesReceived() int64 { return c.inner.BytesReceived() }

// recvCtx receives from any Conn under ctx. DeadlineConns use their pump
// (no goroutine churn, no lost frames); for plain Conns with an expirable
// ctx a one-shot goroutine is used — its abandoned Recv unblocks when the
// caller closes the conn, which eviction does.
func recvCtx(ctx context.Context, c Conn) (*Message, error) {
	if dc, ok := c.(*DeadlineConn); ok {
		return dc.RecvContext(ctx)
	}
	if ctx.Done() == nil {
		return c.Recv()
	}
	ch := make(chan recvResult, 1)
	go func() {
		m, err := c.Recv()
		ch <- recvResult{m, err}
	}()
	select {
	case r := <-ch:
		return r.m, r.err
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: recv: %v", ErrTimeout, ctx.Err())
	}
}

// sendCtx sends on any Conn under ctx, mirroring recvCtx.
func sendCtx(ctx context.Context, c Conn, m *Message) error {
	if dc, ok := c.(*DeadlineConn); ok {
		return dc.SendContext(ctx, m)
	}
	if ctx.Done() == nil {
		return c.Send(m)
	}
	done := make(chan error, 1)
	go func() { done <- c.Send(m) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("%w: send: %v", ErrTimeout, ctx.Err())
	}
}
