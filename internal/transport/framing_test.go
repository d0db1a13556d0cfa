package transport

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/fl"
)

// encodeFrame writes m through a fresh scratch, on the in-place (host byte
// order) path or on the converting path a big-endian host takes.
func encodeFrame(t *testing.T, m *Message, portable bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var fs frameScratch
	if err := writeFrame(&buf, m, &fs, hostLE && !portable); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameMessage compares two messages bit for bit (NaN payloads included);
// nil and empty payloads are the same thing on the wire.
func sameMessage(a, b *Message) bool {
	samePacked := func(x, y PackedVec) bool {
		return x.Scheme == y.Scheme && x.N == y.N && bytes.Equal(x.Data, y.Data)
	}
	return a.Type == b.Type && a.Round == b.Round && a.ClientID == b.ClientID &&
		a.NumSamples == b.NumSamples && math.Float64bits(a.Loss) == math.Float64bits(b.Loss) &&
		a.Trace == b.Trace && a.Span == b.Span && a.Caps == b.Caps && a.Want == b.Want &&
		sameFloatBits(a.Params, b.Params) && sameFloatBits(a.Delta, b.Delta) &&
		samePacked(a.PParams, b.PParams) && samePacked(a.PDelta, b.PDelta)
}

// goldenMessage is the message whose frame, written by the staging-buffer
// encoder this package had before zero-copy framing, is checked in as
// testdata/golden_frame.bin.
func goldenMessage() *Message {
	return &Message{
		Type: MsgUpdate, Round: 7, ClientID: -3, NumSamples: 1 << 40, Loss: 0.125,
		Trace: 0x0102030405060708, Span: 0xf1f2f3f4f5f6f7f8,
		Caps: compress.AllCaps(), Want: compress.SchemeInt8,
		Params: []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, -math.MaxFloat64},
		Delta:   []float64{math.Pi, -2},
		PParams: PackedVec{Scheme: compress.SchemeInt8, N: 5, Data: []byte{0, 0, 0x80, 0x3f, 1, 0xfe, 3, 0xfc, 127}},
		PDelta:  PackedVec{Scheme: compress.SchemeF32, N: 2, Data: []byte{0, 0, 0x80, 0x3e, 0, 0, 0, 0xc1}},
	}
}

func goldenFrame(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_frame.bin")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFrameMatchesGolden(t *testing.T) {
	want := goldenFrame(t)
	for _, portable := range []bool{false, true} {
		if got := encodeFrame(t, goldenMessage(), portable); !bytes.Equal(got, want) {
			t.Fatalf("portable=%v: frame differs from the recorded encoder's\n got %x\nwant %x", portable, got, want)
		}
		m, err := readFrame(bytes.NewReader(want), hostLE && !portable)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMessage(m, goldenMessage()) {
			t.Fatalf("portable=%v: decoded golden frame as %+v", portable, m)
		}
	}
}

// randomFloats draws n values; every eighth is one of the bit patterns a
// numeric conversion could lose (NaN with a payload, ±Inf, −0, a denormal).
func randomFloats(rng *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef),
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = special[rng.Intn(len(special))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

func randomPacked(rng *rand.Rand, n int) PackedVec {
	s := compress.Scheme(1 + rng.Intn(compress.NumSchemes-1))
	data := make([]byte, compress.EncodedBytes(s, n))
	rng.Read(data)
	return PackedVec{Scheme: s, N: int32(n), Data: data}
}

// TestFramePathsAgree is the framing property: for every combination of
// empty and non-empty payload sections, the in-place path and the
// converting path emit the same bytes, and both readers return the message
// bit for bit.
func TestFramePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, 3, 64, 1000, 20011}
	for mask := 0; mask < 16; mask++ {
		for trial := 0; trial < 4; trial++ {
			m := &Message{
				Type: MsgType(1 + rng.Intn(7)), Round: rng.Int31(), ClientID: int32(rng.Intn(9) - 4),
				NumSamples: rng.Int63(), Loss: randomFloats(rng, 1)[0],
				Trace: rng.Uint64(), Span: rng.Uint64(),
				Caps: compress.Caps(rng.Uint32()), Want: compress.Scheme(rng.Intn(compress.NumSchemes)),
			}
			size := func() int { return sizes[rng.Intn(len(sizes))] }
			if mask&1 != 0 {
				m.Params = randomFloats(rng, size())
			}
			if mask&2 != 0 {
				m.Delta = randomFloats(rng, size())
			}
			if mask&4 != 0 {
				m.PParams = randomPacked(rng, size())
			}
			if mask&8 != 0 {
				m.PDelta = randomPacked(rng, size())
			}
			inPlace, swapped := encodeFrame(t, m, false), encodeFrame(t, m, true)
			if !bytes.Equal(inPlace, swapped) {
				t.Fatalf("mask %04b: the two write paths emit different frames", mask)
			}
			if len(inPlace) != m.EncodedSize() {
				t.Fatalf("mask %04b: wrote %d bytes, EncodedSize says %d", mask, len(inPlace), m.EncodedSize())
			}
			for _, portable := range []bool{false, true} {
				got, err := readFrame(bytes.NewReader(inPlace), hostLE && !portable)
				if err != nil {
					t.Fatalf("mask %04b portable=%v: %v", mask, portable, err)
				}
				if !sameMessage(got, m) {
					t.Fatalf("mask %04b portable=%v: round trip changed the message", mask, portable)
				}
			}
		}
	}
}

// TestReadMessageTruncatedFrames cuts a frame carrying all four payload
// sections at every byte — inside the header, Params, Delta and the packed
// block — and a 1 MB one mid-Params: a short read is an error and never a
// partially filled message.
func TestReadMessageTruncatedFrames(t *testing.T) {
	check := func(raw []byte, portable bool) {
		t.Helper()
		m, err := readFrame(bytes.NewReader(raw), hostLE && !portable)
		if err == nil || m != nil {
			t.Fatalf("portable=%v, %d bytes: got (%v, %v), want (nil, error)", portable, len(raw), m, err)
		}
	}
	golden := goldenFrame(t)
	big := encodeFrame(t, &Message{Type: MsgAssign, Params: make([]float64, 125978)}, false)
	for _, portable := range []bool{false, true} {
		for cut := 0; cut < len(golden); cut++ {
			check(golden[:cut], portable)
		}
		check(big[:len(big)/2], portable)
	}
}

type discardConn struct{ io.Reader }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestFramingAllocs pins the copies the framing no longer makes: sending a
// 1 MB dense frame allocates nothing, receiving it allocates the message
// and its Params and nothing else.
func TestFramingAllocs(t *testing.T) {
	m := &Message{Type: MsgAssign, Round: 1, Params: make([]float64, 125978)}
	c := NewStreamConn(discardConn{})
	wantSend := 0.0
	if !hostLE {
		wantSend = 1 // the converted copy of Params
	}
	if a := testing.AllocsPerRun(10, func() {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}); a != wantSend {
		t.Errorf("streamConn.Send of a dense frame: %v allocs, want %v", a, wantSend)
	}
	var wire bytes.Buffer
	if err := WriteMessage(&wire, m); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(nil)
	if a := testing.AllocsPerRun(10, func() {
		r.Reset(wire.Bytes())
		if _, err := ReadMessage(r); err != nil {
			t.Fatal(err)
		}
	}); a != 2 {
		t.Errorf("ReadMessage of a dense frame: %v allocs, want 2 (Message, Params)", a)
	}
}

type pipeConn struct {
	*io.PipeReader
	*io.PipeWriter
}

func (p pipeConn) Close() error { p.PipeReader.Close(); return p.PipeWriter.Close() }

// TestStreamConnConcurrentSendsStayWhole: off TCP a frame is several
// Writes (an io.Pipe hands each one over separately), so two goroutines
// sending on one streamConn must not interleave their frames. Run under
// -race by make test-race.
func TestStreamConnConcurrentSendsStayWhole(t *testing.T) {
	const senders, frames = 2, 50
	pr, pw := io.Pipe()
	c := NewStreamConn(pipeConn{pr, pw})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fill := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = float64(g)
				}
				return v
			}
			m := &Message{Type: MsgUpdate, ClientID: int32(g), Params: fill(300), Delta: fill(40),
				PDelta: PackedVec{Scheme: compress.SchemeF32, N: 2, Data: bytes.Repeat([]byte{byte(g)}, 8)}}
			for i := 0; i < frames; i++ {
				m.Round = int32(i)
				if err := c.Send(m); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	var next [senders]int32
	for i := 0; i < senders*frames; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		g := m.ClientID
		if g < 0 || g >= senders || m.Round != next[g] || len(m.Params) != 300 || len(m.Delta) != 40 {
			t.Fatalf("frame %d is not a whole frame of one sender: client %d round %d", i, g, m.Round)
		}
		next[g]++
		for _, v := range append(m.Params, m.Delta...) {
			if v != float64(g) {
				t.Fatalf("frame %d of sender %d carries another sender's payload", i, g)
			}
		}
		if !bytes.Equal(m.PDelta.Data, bytes.Repeat([]byte{byte(g)}, 8)) {
			t.Fatalf("frame %d of sender %d carries another sender's packed bytes", i, g)
		}
	}
	wg.Wait()
	c.Close()
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (server, client net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = net.Dial("tcp", l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return server, client
}

// TestClientUpdateInAssignBufferIsTransportInvariant: a dense client
// answers in the buffer its assign arrived in. Whatever carries the frames
// — cloning pipes, one writev per frame on TCP, sequential Writes on any
// other stream — the session must compute the same losses and the same
// final model to the bit, also with a client whose FaultConn duplicates
// every frame and sign-flips its update (the rewrite works on a clone, so
// it must neither see nor leave anything in the reused buffer).
func TestClientUpdateInAssignBufferIsTransportInvariant(t *testing.T) {
	transports := map[string]func() (Conn, Conn){
		"tcp": func() (Conn, Conn) {
			s, c := tcpPair(t)
			return NewStreamConn(s), NewStreamConn(c)
		},
		// The same socket with its writev hidden: one Write per section.
		"stream": func() (Conn, Conn) {
			s, c := tcpPair(t)
			return NewStreamConn(struct{ net.Conn }{s}), NewStreamConn(struct{ net.Conn }{c})
		},
	}
	var honest *ServerResult
	for _, byzantine := range []bool{false, true} {
		run := func(mk func() (Conn, Conn)) (*ServerResult, [][]float64) {
			return runSession(t, AlgoRFedAvgPlus, 4, 6, func(i int) (Conn, Conn) {
				s, c := mk()
				if byzantine && i == 2 {
					c = NewFaultConn(c, FaultPlan{Seed: 5, DuplicateProb: 1, SignFlipUpdate: true})
				}
				return s, c
			})
		}
		want, wantFinals := run(Pipe)
		for name, mk := range transports {
			got, finals := run(mk)
			if !sameFloatBits(got.RoundLosses, want.RoundLosses) || !sameFloatBits(got.FinalParams, want.FinalParams) {
				t.Errorf("byzantine=%v: %s session differs from the pipe session: losses %v vs %v",
					byzantine, name, got.RoundLosses, want.RoundLosses)
			}
			for i := range finals {
				if !sameFloatBits(finals[i], wantFinals[i]) {
					t.Errorf("byzantine=%v: %s client %d ended on a different model", byzantine, name, i)
				}
			}
		}
		if byzantine && sameFloatBits(honest.RoundLosses, want.RoundLosses) {
			t.Error("the sign-flipping client left no trace in the round losses")
		}
		honest = want
	}
}

// fl.PayloadBytes is the simulator's nominal count, not the frame: a dense
// frame of n floats is 52 bytes more — a 72-byte header and a 4-byte length
// prefix against the nominal 24 — at every n.
func TestDenseFrameIsPayloadBytesPlus52(t *testing.T) {
	for _, n := range []int{0, 48, 39_418} {
		m := &Message{Type: MsgUpdate, Params: make([]float64, n)}
		if got := len(encodeFrame(t, m, false)); got != m.EncodedSize() {
			t.Fatalf("n=%d: wrote %d bytes, EncodedSize says %d", n, got, m.EncodedSize())
		}
		if d := int64(m.EncodedSize()) - fl.PayloadBytes(n); d != 52 {
			t.Errorf("n=%d: EncodedSize − PayloadBytes = %d, want 52", n, d)
		}
	}
}
