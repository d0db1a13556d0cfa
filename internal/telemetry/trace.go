package telemetry

import (
	"io"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Tracing gives spans identity. A traced span carries a trace ID (the session),
// its own span ID, and a parent span ID, so a post-hoc tool can rebuild the
// full tree of one federated round — server phases, per-client gathers, and
// the client-side work stitched in via span context carried in transport
// frame headers. Completed spans are "span" lines of a RunLedger's stream.
//
// The design follows the package's zero-alloc contract: ActiveSpan is a
// value type, IDs come from an atomic counter, and emission appends into the
// stream's reused buffer under its lock. A nil *Tracer is valid everywhere and makes
// every operation a no-op, so call sites need no guards.

// SpanContext identifies a span for parenting — within one process or
// across the wire (transport headers carry exactly these two words).
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Tracer allocates span IDs and writes completed spans to its stream.
type Tracer struct {
	out  *RunLedger
	next atomic.Uint64
}

// NewTracer writes spans to a stream of its own over w.
func NewTracer(w io.Writer) *Tracer { return NewRunLedger(w).Tracer() }

// Tracer returns a tracer writing to l's stream (nil on a nil ledger). IDs
// are seeded from the clock and PID so spans from separate processes of one
// session (flserver and its flclients) cannot collide when their streams are
// merged.
func (l *RunLedger) Tracer() *Tracer {
	if l == nil {
		return nil
	}
	t := &Tracer{out: l}
	seed := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	if seed == 0 {
		seed = 1
	}
	t.next.Store(seed)
	return t
}

func (t *Tracer) nextID() uint64 {
	id := t.next.Add(1)
	if id == 0 { // 0 means "no span"; skip it on wraparound
		id = t.next.Add(1)
	}
	return id
}

// Start begins a span. A zero parent starts a new trace (the span becomes a
// root); otherwise the span joins parent's trace. Safe on a nil Tracer, in
// which case the returned span is inert: it emits nothing but still measures.
func (t *Tracer) Start(name string, parent SpanContext) ActiveSpan {
	s := ActiveSpan{start: time.Now(), Round: -1, Client: -1}
	if t == nil {
		return s
	}
	s.tracer, s.name, s.parent, s.trace, s.span = t, name, parent.Span, parent.Trace, t.nextID()
	if s.trace == 0 {
		s.trace = t.nextID()
	}
	return s
}

// ActiveSpan is a span in progress. It is a value type: starting and ending
// one allocates nothing. Round and Client are optional attributes (−1 when
// unset) recorded in the emitted line.
type ActiveSpan struct {
	tracer *Tracer
	name   string
	trace  uint64
	span   uint64
	parent uint64
	start  time.Time

	// Round and Client tag the span with the federated round and client ID
	// it belongs to; set them between Start and End. −1 means unset.
	Round  int
	Client int
}

// Context returns the span's identity for parenting children — locally or
// in a transport frame header.
func (s ActiveSpan) Context() SpanContext {
	return SpanContext{Trace: s.trace, Span: s.span}
}

// Child starts a span under s on s's tracer, tagged with s's round and
// client. A child of an inert span is inert.
func (s ActiveSpan) Child(name string) ActiveSpan {
	c := s.tracer.Start(name, s.Context())
	c.Round, c.Client = s.Round, s.Client
	return c
}

// End completes the span, emits it unless it is inert, and returns its
// duration.
func (s ActiveSpan) End() time.Duration {
	d := time.Since(s.start)
	if s.tracer != nil {
		s.tracer.emit(s, d)
	}
	return d
}

func appendHexID(b []byte, id uint64) []byte {
	b = append(b, '"')
	b = strconv.AppendUint(b, id, 16)
	return append(b, '"')
}

// emit writes one span line:
//
//	{"kind":"span","trace":"hex","span":"hex","parent":"hex","name":"...","round":N,
//	 "client":N,"start_ns":unixNanos,"dur_ns":nanos}
//
// IDs are hex strings because uint64 values do not survive a float64
// round-trip in generic JSON decoders. "parent" is omitted for roots;
// "round"/"client" are omitted when unset.
func (t *Tracer) emit(s ActiveSpan, d time.Duration) {
	b := t.out.begin("span")
	b = append(b, `,"trace":`...)
	b = appendHexID(b, s.trace)
	b = append(b, `,"span":`...)
	b = appendHexID(b, s.span)
	if s.parent != 0 {
		b = append(b, `,"parent":`...)
		b = appendHexID(b, s.parent)
	}
	b = append(b, `,"name":`...)
	b = appendJSONString(b, s.name)
	if s.Round >= 0 {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(s.Round), 10)
	}
	if s.Client >= 0 {
		b = append(b, `,"client":`...)
		b = strconv.AppendInt(b, int64(s.Client), 10)
	}
	b = append(b, `,"start_ns":`...)
	b = strconv.AppendInt(b, s.start.UnixNano(), 10)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, int64(d), 10)
	t.out.end(b, false)
}
