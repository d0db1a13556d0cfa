package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

// spanLine mirrors the tracer's JSONL schema for decoding in tests.
type spanLine struct {
	Kind    string `json:"kind"`
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	Round   *int   `json:"round"`
	Client  *int   `json:"client"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

func decodeSpans(t *testing.T, r io.Reader) []spanLine {
	t.Helper()
	var out []spanLine
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Kind != "span" {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		out = append(out, s)
	}
	return out
}

func TestTracerBuildsSpanTree(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)

	session := tr.Start("session", SpanContext{})
	round := tr.Start("round", session.Context())
	round.Round = 3
	gather := tr.Start("gather_client", round.Context())
	gather.Round = 3
	gather.Client = 7
	gather.End()
	round.End()
	session.End()

	spans := decodeSpans(t, &buf)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Spans emit at End, so the order is leaf-first.
	g, r, s := spans[0], spans[1], spans[2]
	if s.Parent != "" {
		t.Errorf("root span has parent %q, want none", s.Parent)
	}
	if r.Parent != s.Span || g.Parent != r.Span {
		t.Errorf("parent chain broken: gather.parent=%q round.span=%q round.parent=%q session.span=%q",
			g.Parent, r.Span, r.Parent, s.Span)
	}
	if g.Trace != s.Trace || r.Trace != s.Trace || s.Trace == "" {
		t.Errorf("trace IDs differ: %q %q %q", g.Trace, r.Trace, s.Trace)
	}
	if r.Round == nil || *r.Round != 3 {
		t.Errorf("round span round attr = %v, want 3", r.Round)
	}
	if s.Round != nil || s.Client != nil {
		t.Errorf("session span has round/client attrs %v/%v, want omitted", s.Round, s.Client)
	}
	if g.Client == nil || *g.Client != 7 {
		t.Errorf("gather span client attr = %v, want 7", g.Client)
	}
	if g.StartNS == 0 || g.DurNS < 0 {
		t.Errorf("gather span timing start=%d dur=%d", g.StartNS, g.DurNS)
	}
}

// TestTracerStitchesRemoteParent models the wire hop: the client-side
// tracer is a different *Tracer instance, but spans it starts under a
// SpanContext received in a frame header must join the server's trace.
func TestTracerStitchesRemoteParent(t *testing.T) {
	var serverBuf, clientBuf bytes.Buffer
	serverTr, clientTr := NewTracer(&serverBuf), NewTracer(&clientBuf)

	round := serverTr.Start("round", SpanContext{})
	wire := round.Context() // travels in the message header
	local := clientTr.Start("local_steps", wire)
	local.End()
	round.End()

	cs := decodeSpans(t, &clientBuf)[0]
	ss := decodeSpans(t, &serverBuf)[0]
	if cs.Trace != ss.Trace {
		t.Errorf("client span trace %q, want server trace %q", cs.Trace, ss.Trace)
	}
	if cs.Parent != ss.Span {
		t.Errorf("client span parent %q, want server span %q", cs.Parent, ss.Span)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	s := tr.Start("anything", SpanContext{Trace: 1, Span: 2})
	if s.Context().Valid() {
		t.Errorf("nil-tracer span context %+v, want invalid", s.Context())
	}
	if d := s.End(); d < 0 {
		t.Errorf("nil-tracer span duration %v", d)
	}
}

// An inert span emits nothing but still measures: its End is the elapsed
// time since Start, not since the zero time.
func TestInertSpanMeasures(t *testing.T) {
	var tr *Tracer
	s := tr.Start("inert", SpanContext{})
	time.Sleep(2 * time.Millisecond)
	if d := s.End(); d < 2*time.Millisecond || d > time.Minute {
		t.Fatalf("inert span measured %v, want about 2ms", d)
	}
}

func TestTracerSteadyStateAllocs(t *testing.T) {
	tr := NewTracer(io.Discard)
	parent := tr.Start("root", SpanContext{})
	for i := 0; i < 3; i++ { // size the emit buffer
		s := tr.Start("warm", parent.Context())
		s.Round, s.Client = 1, 2
		s.End()
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start("steady", parent.Context())
		s.Round, s.Client = 1, 2
		s.End()
	})
	if allocs != 0 {
		t.Errorf("span start/end: %.1f allocs/op, want 0", allocs)
	}
}
