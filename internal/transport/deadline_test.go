package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDeadlineConnRecvTimeout(t *testing.T) {
	a, _ := Pipe()
	dc := newDeadlineConn(a)
	defer dc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := dc.RecvContext(ctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout from expired context, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// A frame that arrives after a receive timed out must not be lost: the pump
// buffers it for the next receive.
func TestDeadlineConnLateFrameNotLost(t *testing.T) {
	a, b := Pipe()
	dc := newDeadlineConn(a)
	defer dc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := dc.RecvContext(ctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if err := b.Send(&Message{Type: MsgJoin, NumSamples: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := dc.RecvContext(context.Background())
	if err != nil || m.NumSamples != 9 {
		t.Fatalf("late frame lost: %v %v", m, err)
	}
}

// A buffered frame wins over an already-cancelled context.
func TestDeadlineConnRecvContext(t *testing.T) {
	a, b := Pipe()
	dc := newDeadlineConn(a)
	defer dc.Close()
	if err := b.Send(&Message{Type: MsgSkip}); err != nil {
		t.Fatal(err)
	}
	for len(dc.recvCh) == 0 { // wait for the pump to buffer it
		time.Sleep(time.Millisecond)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if m, err := dc.RecvContext(done); err != nil || m.Type != MsgSkip {
		t.Fatalf("buffered frame should beat dead context: %v %v", m, err)
	}
}

func TestDeadlineConnPassThrough(t *testing.T) {
	a, b := Pipe()
	dc := newDeadlineConn(a)
	defer dc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	m := &Message{Type: MsgUpdate, Loss: 1.5, Params: []float64{1, 2}}
	if err := dc.SendContext(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || got.Loss != 1.5 {
		t.Fatalf("send through wrapper: %v %v", got, err)
	}
	if err := b.Send(m); err != nil {
		t.Fatal(err)
	}
	if got, err := dc.RecvContext(ctx); err != nil || len(got.Params) != 2 {
		t.Fatalf("recv through wrapper: %v %v", got, err)
	}
	if dc.BytesSent() == 0 || dc.BytesReceived() == 0 {
		t.Fatal("byte accounting must delegate to the inner conn")
	}
}

func TestDeadlineConnClosedOps(t *testing.T) {
	a, _ := Pipe()
	dc := newDeadlineConn(a)
	dc.Close()
	if err := dc.SendContext(context.Background(), &Message{Type: MsgSkip}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	// The pump may have already delivered the inner conn's EOF into the
	// buffer; either way the receive must fail.
	if _, err := dc.RecvContext(context.Background()); err == nil {
		t.Fatal("recv after close must fail")
	}
}
