// Package transport provides the wire protocol for running the federated
// algorithms across real processes: a compact binary codec, in-process and
// TCP connections with byte accounting, and a synchronous server/client
// implementation of FedAvg and rFedAvg+ (the flagship algorithm). Its byte
// counts are frames as written (Message.EncodedSize); the simulator's
// fl.PayloadBytes is a nominal count that agrees with them on Table III's
// scaling, not on its byte totals.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"unsafe"

	"repro/internal/compress"
	"repro/internal/telemetry"
)

// Process-wide codec byte counters on the default registry. They count real
// framed traffic only — in-process Pipe conns bypass the codec (messages
// are cloned, not encoded), so these series isolate what actually crossed a
// socket, while the per-session rfl_bytes_* series also cover pipes.
var (
	codecBytesWritten = telemetry.Default().Counter("rfl_codec_bytes_written_total",
		"bytes of framed protocol messages written to real connections")
	codecBytesRead = telemetry.Default().Counter("rfl_codec_bytes_read_total",
		"bytes of framed protocol messages read from real connections")
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types, in the order they appear in a session.
const (
	// MsgJoin is the client's hello: its shard size, so the server can set
	// aggregation weights.
	MsgJoin MsgType = iota + 1
	// MsgAssign starts a round: global parameters plus, for rFedAvg+, the
	// client's regularization target δ̄^{-k}. The payload-less form — neither
	// Params nor PParams — means "train from the model the previous round's
	// MsgDeltaReq gave you": the server sends it only to a connection it sent
	// that frame, in a round whose cohort was the whole population, and a
	// client that holds no such model fails the session.
	MsgAssign
	// MsgUpdate returns the locally trained parameters and training loss.
	MsgUpdate
	// MsgDeltaReq is rFedAvg+'s second synchronization: the freshly
	// aggregated global model, from which the client must recompute its map
	// — and which it keeps loaded as the next round's starting point.
	MsgDeltaReq
	// MsgDelta returns the client's recomputed map δ^k.
	MsgDelta
	// MsgDone ends the session; Params carries the final global model.
	MsgDone
	// MsgSkip is reserved: it told a client it was outside the round's cohort.
	// The server never sends it — a client outside the cohort hears nothing
	// until its next MsgAssign — and receivers ignore it.
	MsgSkip
)

// PackedVec is a compressed vector payload: Scheme-encoded bytes for N
// original float64 elements. len(Data) is always exactly
// compress.EncodedBytes(Scheme, N) — ReadMessage enforces the invariant
// before allocating, so a forged header cannot claim a longer buffer than
// its element count justifies.
type PackedVec struct {
	Scheme compress.Scheme
	N      int32
	Data   []byte
}

// Message is one protocol frame. Unused fields are zero/nil and cost only
// their length prefixes on the wire.
//
// Trace and Span carry span context across the wire (the server's round
// span on MsgAssign/MsgDeltaReq), so client-side spans stitch into the
// server's round tree. Zero means "no tracing".
//
// Codec negotiation rides on three fields: Caps advertises the sender's
// supported schemes (MsgJoin), Want asks the peer to encode its reply's
// primary payload under a scheme (MsgAssign/MsgDeltaReq), and
// PParams/PDelta carry scheme-tagged compressed vectors in place of the
// dense Params/Delta. A frame never carries both the dense and packed form
// of the same payload class.
type Message struct {
	Type       MsgType
	Round      int32
	ClientID   int32
	NumSamples int64
	Loss       float64
	Trace      uint64
	Span       uint64
	Caps       compress.Caps
	Want       compress.Scheme
	Params     []float64
	Delta      []float64
	PParams    PackedVec
	PDelta     PackedVec

	// pooled marks Params as a vector of the float pool: a pipe's queued
	// copy (inprocConn.Send). The server puts it back when the round that
	// aggregated it closes (session.closeRound), and a pipe's Recv when it
	// copies the frame into the receiver's offer.
	pooled bool
}

// SpanContext returns the span context the frame carries.
func (m *Message) SpanContext() telemetry.SpanContext {
	return telemetry.SpanContext{Trace: m.Trace, Span: m.Span}
}

// setSpanContext stamps a span context onto the frame.
func (m *Message) setSpanContext(c telemetry.SpanContext) {
	m.Trace, m.Span = c.Trace, c.Span
}

// Clone returns a deep copy of the message: the float and packed payloads
// get their own backing arrays, none of them pooled. In-process pipes deliver
// copies so that no two endpoints ever share a payload slice — the wire conns
// get the same isolation for free from encode/decode.
func (m *Message) Clone() *Message {
	c := *m
	c.pooled = false
	if m.Params != nil {
		c.Params = append([]float64(nil), m.Params...)
	}
	if m.Delta != nil {
		c.Delta = append([]float64(nil), m.Delta...)
	}
	if m.PParams.Data != nil {
		c.PParams.Data = append([]byte(nil), m.PParams.Data...)
	}
	if m.PDelta.Data != nil {
		c.PDelta.Data = append([]byte(nil), m.PDelta.Data...)
	}
	return &c
}

// Header layout (after the 4-byte length prefix): type(1), round(4),
// clientID(4), numSamples(8), loss(8), trace(8), span(8), caps(4), want(1),
// nParams(4), nDeltas(4), pScheme(1), pN(4), pLen(4), dScheme(1), dN(4),
// dLen(4).
const msgHeaderSize = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 1 + 4 + 4 + 1 + 4 + 4 + 1 + 4 + 4

// EncodedSize returns the exact number of bytes WriteMessage produces.
func (m *Message) EncodedSize() int {
	return 4 + msgHeaderSize + 8*len(m.Params) + 8*len(m.Delta) +
		len(m.PParams.Data) + len(m.PDelta.Data)
}

// hostLE: float64 memory already is the wire's byte order, so dense
// payloads are written from and read into their own slices.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes returns v's wire bytes: v's own memory viewed as bytes where
// that is the wire form (inPlace), a converted copy on a big-endian host.
func floatBytes(v []float64, inPlace bool) []byte {
	if inPlace {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
	}
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// frameScratch is what writeFrame needs besides the message. Anything handed
// to an io.Writer escapes, so the header and the iovec backing live here: a
// streamConn owns one and its sends allocate nothing.
type frameScratch struct {
	hdr  [4 + msgHeaderSize]byte
	iov  [5][]byte
	bufs net.Buffers // points into iov
}

// WriteMessage writes one length-prefixed frame. It reads m's payload
// slices in place until it returns; nothing is staged.
func WriteMessage(w io.Writer, m *Message) error {
	var fs frameScratch
	return writeFrame(w, m, &fs, hostLE)
}

// writeFrame and readFrame take le, normally hostLE, so tests can run the
// big-endian branches on any host.
func writeFrame(w io.Writer, m *Message, fs *frameScratch, le bool) error {
	body := msgHeaderSize + 8*len(m.Params) + 8*len(m.Delta) +
		len(m.PParams.Data) + len(m.PDelta.Data)
	buf := fs.hdr[:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(body))
	buf[4] = byte(m.Type)
	binary.LittleEndian.PutUint32(buf[5:], uint32(m.Round))
	binary.LittleEndian.PutUint32(buf[9:], uint32(m.ClientID))
	binary.LittleEndian.PutUint64(buf[13:], uint64(m.NumSamples))
	binary.LittleEndian.PutUint64(buf[21:], math.Float64bits(m.Loss))
	binary.LittleEndian.PutUint64(buf[29:], m.Trace)
	binary.LittleEndian.PutUint64(buf[37:], m.Span)
	binary.LittleEndian.PutUint32(buf[45:], uint32(m.Caps))
	buf[49] = byte(m.Want)
	binary.LittleEndian.PutUint32(buf[50:], uint32(len(m.Params)))
	binary.LittleEndian.PutUint32(buf[54:], uint32(len(m.Delta)))
	buf[58] = byte(m.PParams.Scheme)
	binary.LittleEndian.PutUint32(buf[59:], uint32(m.PParams.N))
	binary.LittleEndian.PutUint32(buf[63:], uint32(len(m.PParams.Data)))
	buf[67] = byte(m.PDelta.Scheme)
	binary.LittleEndian.PutUint32(buf[68:], uint32(m.PDelta.N))
	binary.LittleEndian.PutUint32(buf[72:], uint32(len(m.PDelta.Data)))
	fs.bufs = fs.iov[:0]
	for _, b := range [...][]byte{buf, floatBytes(m.Params, le), floatBytes(m.Delta, le),
		m.PParams.Data, m.PDelta.Data} {
		// A zero-length Write on an io.Pipe blocks until the peer's next Read.
		if len(b) > 0 {
			fs.bufs = append(fs.bufs, b)
		}
	}
	// One writev on a TCP conn, sequential Writes on any other writer.
	_, err := fs.bufs.WriteTo(w)
	clear(fs.iov[:]) // the scratch must not pin payloads past the write
	if err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	codecBytesWritten.Add(int64(4 + body))
	return nil
}

// maxFrameSize rejects corrupt length prefixes before allocating.
const maxFrameSize = 1 << 30

// validPacked checks a packed-vector header before any allocation: the
// scheme tag must name a known codec and the byte length must be exactly
// what the scheme requires for the claimed element count. An empty vector
// (N == 0) must be fully empty.
func validPacked(scheme byte, n, dataLen int) error {
	s := compress.Scheme(scheme)
	if !s.Valid() {
		return fmt.Errorf("transport: unknown packed scheme tag %d", scheme)
	}
	if n == 0 && (dataLen != 0 || s != compress.SchemeDense) {
		return fmt.Errorf("transport: empty packed vector with scheme %v and %d bytes", s, dataLen)
	}
	if n > maxFrameSize/8 {
		return fmt.Errorf("transport: packed vector claims %d elements", n)
	}
	if n > 0 && dataLen != compress.EncodedBytes(s, n) {
		return fmt.Errorf("transport: %v payload has %d bytes, want %d for %d values",
			s, dataLen, compress.EncodedBytes(s, n), n)
	}
	return nil
}

// readFloats reads n wire floats straight into a slice's memory — lent when
// that holds exactly n, else fresh; a big-endian host then fixes the byte
// order in place.
func readFloats(r io.Reader, n int, le bool, lent []float64) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	v := lent
	if len(v) != n {
		v = make([]float64, n)
	}
	b := floatBytes(v, true)
	_, err := io.ReadFull(r, b)
	if !le {
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return v, err
}

// ReadMessage reads one length-prefixed frame. All length and scheme
// invariants are checked against the fixed-size header before the payload
// slices are allocated; the payload is then read straight into them. A
// short read returns an error and no message.
func ReadMessage(r io.Reader) (*Message, error) { return readFrame(r, hostLE) }

func readFrame(r io.Reader, le bool) (*Message, error) { return readFrameInto(r, le, nil) }

// readFrameInto is readFrame for a receiver that lends storage: a dense Params
// section of exactly len(lent) floats is read into lent and returned as
// m.Params. Nothing is written to lent before every header check has passed;
// a read that fails part-way leaves it partly overwritten.
func readFrameInto(r io.Reader, le bool, lent []float64) (*Message, error) {
	// The header scratch rides in the message's allocation; on its own it
	// would escape through the io.Reader into a second one.
	fr := new(struct {
		Message
		hdr [4 + msgHeaderSize]byte
	})
	if _, err := io.ReadFull(r, fr.hdr[:4]); err != nil {
		return nil, fmt.Errorf("transport: read frame length: %w", err)
	}
	body := binary.LittleEndian.Uint32(fr.hdr[:4])
	if body < msgHeaderSize || body > maxFrameSize {
		return nil, fmt.Errorf("transport: invalid frame length %d", body)
	}
	buf := fr.hdr[4:]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	m := &fr.Message
	*m = Message{
		Type:       MsgType(buf[0]),
		Round:      int32(binary.LittleEndian.Uint32(buf[1:])),
		ClientID:   int32(binary.LittleEndian.Uint32(buf[5:])),
		NumSamples: int64(binary.LittleEndian.Uint64(buf[9:])),
		Loss:       math.Float64frombits(binary.LittleEndian.Uint64(buf[17:])),
		Trace:      binary.LittleEndian.Uint64(buf[25:]),
		Span:       binary.LittleEndian.Uint64(buf[33:]),
		Caps:       compress.Caps(binary.LittleEndian.Uint32(buf[41:])),
		Want:       compress.Scheme(buf[45]),
	}
	np := int(binary.LittleEndian.Uint32(buf[46:]))
	nd := int(binary.LittleEndian.Uint32(buf[50:]))
	pn := int(binary.LittleEndian.Uint32(buf[55:]))
	plen := int(binary.LittleEndian.Uint32(buf[59:]))
	dn := int(binary.LittleEndian.Uint32(buf[64:]))
	dlen := int(binary.LittleEndian.Uint32(buf[68:]))
	if np > maxFrameSize/8 || nd > maxFrameSize/8 {
		return nil, fmt.Errorf("transport: frame claims %d params + %d deltas", np, nd)
	}
	if err := validPacked(buf[54], pn, plen); err != nil {
		return nil, err
	}
	if err := validPacked(buf[63], dn, dlen); err != nil {
		return nil, err
	}
	if msgHeaderSize+8*(np+nd)+plen+dlen != int(body) {
		return nil, fmt.Errorf("transport: frame length %d does not match %d params + %d deltas + %d+%d packed bytes",
			body, np, nd, plen, dlen)
	}
	var err error
	if m.Params, err = readFloats(r, np, le, lent); err == nil {
		m.Delta, err = readFloats(r, nd, le, nil)
	}
	if err == nil && plen+dlen > 0 {
		packed := make([]byte, plen+dlen)
		_, err = io.ReadFull(r, packed)
		if pn > 0 {
			m.PParams = PackedVec{Scheme: compress.Scheme(buf[54]), N: int32(pn), Data: packed[:plen:plen]}
		}
		if dn > 0 {
			m.PDelta = PackedVec{Scheme: compress.Scheme(buf[63]), N: int32(dn), Data: packed[plen:]}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	codecBytesRead.Add(int64(4 + body))
	return m, nil
}
