// Package compress is the update codec: four fixed wire schemes (raw
// float64, float32, QSGD-style stochastic 8-bit, 1-bit sign) with a
// self-describing byte encoding, the capability negotiation that picks one
// per payload class, and the fused encode→residual pass error feedback
// needs. The transport frames these bytes on the socket and the simulator
// runs the same encode on every simulated upload, so a byte count or a
// reconstruction error means the same thing in both.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Scheme names one of the fixed wire codecs the transport can negotiate per
// payload class. A Scheme has a self-describing byte encoding: any peer that
// knows the scheme tag and the original element count can decode the
// payload, which is what lets the frame codec validate lengths before
// allocating.
type Scheme uint8

// The negotiable wire schemes, in caps-bitmask order. Dense is the zero
// value, so an un-negotiated or unknown peer degrades to raw float64.
const (
	// SchemeDense ships raw float64 (8 bytes/coord) — lossless.
	SchemeDense Scheme = iota
	// SchemeF32 rounds to float32 (4 bytes/coord).
	SchemeF32
	// SchemeInt8 is QSGD-style stochastic quantization onto the ±127 grid
	// scaled by max|v|: one float32 scale plus one int8 per coordinate.
	// Unbiased given the caller's RNG.
	SchemeInt8
	// SchemeBit1 is 1-bit sign quantization scaled by mean|v|: one float32
	// scale plus one sign bit per coordinate. Deterministic and biased;
	// pair it with error feedback.
	SchemeBit1

	numSchemes
)

// NumSchemes is the number of defined schemes, for per-scheme metric arrays.
const NumSchemes = int(numSchemes)

// Valid reports whether s names a defined scheme.
func (s Scheme) Valid() bool { return s < numSchemes }

// Stochastic reports whether encoding under s draws from the caller's RNG:
// two encodes of one vector under any other scheme are the same bytes.
func (s Scheme) Stochastic() bool { return s == SchemeInt8 }

// String returns the scheme's canonical name ("dense", "f32", "q8", "q1").
func (s Scheme) String() string {
	switch s {
	case SchemeDense:
		return "dense"
	case SchemeF32:
		return "f32"
	case SchemeInt8:
		return "q8"
	case SchemeBit1:
		return "q1"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// ParseScheme resolves a scheme name (canonical or alias) from a flag value.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "", "dense", "none", "identity":
		return SchemeDense, nil
	case "f32", "float32":
		return SchemeF32, nil
	case "q8", "int8":
		return SchemeInt8, nil
	case "q1", "1bit", "sign":
		return SchemeBit1, nil
	default:
		return SchemeDense, fmt.Errorf("compress: unknown scheme %q (want dense, f32, q8, or q1)", name)
	}
}

// Caps is a bitmask of supported schemes, advertised in the join handshake.
// Dense is always implied: even a zero Caps can receive raw float64.
type Caps uint32

// AllCaps advertises every scheme this build knows.
func AllCaps() Caps { return Caps(1)<<numSchemes - 1 }

// CapsOf builds a mask from explicit schemes (dense is always included).
func CapsOf(schemes ...Scheme) Caps {
	c := Caps(1) << SchemeDense
	for _, s := range schemes {
		if s.Valid() {
			c |= Caps(1) << s
		}
	}
	return c
}

// Has reports whether s is usable against a peer with these caps. Unknown
// bits a newer peer may set are ignored; dense always holds.
func (c Caps) Has(s Scheme) bool {
	if s == SchemeDense {
		return true
	}
	return s.Valid() && c&(Caps(1)<<s) != 0
}

// Negotiate picks the scheme for one payload class: the preferred scheme
// when the peer advertised it, dense otherwise (including when preferred is
// itself unknown — a config from a newer build degrades, never errors).
func Negotiate(preferred Scheme, peer Caps) Scheme {
	if preferred.Valid() && peer.Has(preferred) {
		return preferred
	}
	return SchemeDense
}

// EncodedBytes is the exact wire size of an n-element payload under s.
// Frame validation relies on it being an injective function of (s, n) per
// scheme, so a forged header cannot claim a longer buffer than the element
// count justifies.
func EncodedBytes(s Scheme, n int) int {
	switch s {
	case SchemeDense:
		return 8 * n
	case SchemeF32:
		return 4 * n
	case SchemeInt8:
		return 4 + n
	case SchemeBit1:
		return 4 + (n+7)/8
	default:
		panic(fmt.Sprintf("compress: EncodedBytes of invalid scheme %d", s))
	}
}

// A payload is a header — empty, or the float32 scale of a quantizing scheme —
// and a body of fixed width per coordinate. The four entry points are drivers
// around one body encoder and one body decoder, so a scheme's arithmetic is
// written once.

// headerBytes is the size of s's payload header.
func headerBytes(s Scheme) int { return EncodedBytes(s, 0) }

// putScale writes s's header for v and returns the scale as the peer reads it
// back: max|v| (q8) or mean|v| (q1) through float32, so values quantize
// against what the peer multiplies by. A degenerate scale (zero or non-finite
// input) is stored as 0 and the peer reconstructs zeros instead of NaNs.
func putScale(s Scheme, dst []byte, v []float64) float64 {
	a := 0.0
	switch s {
	case SchemeInt8:
		for _, x := range v {
			if b := math.Abs(x); b > a { // a NaN never wins
				a = b
			}
		}
		a = float64(float32(a))
	case SchemeBit1:
		for _, x := range v {
			a += math.Abs(x)
		}
		a /= float64(max(len(v), 1))
	default:
		return 0
	}
	if math.IsInf(a, 0) || math.IsNaN(a) {
		a = 0
	}
	binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(a)))
	return float64(float32(a))
}

// getScale reads the scale putScale wrote.
func getScale(s Scheme, src []byte) float64 {
	if headerBytes(s) == 0 {
		return 0
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(src)))
}

// encodeBody writes the body bytes of v's coordinates. A SchemeBit1 body
// starts on a byte: callers split a vector at multiples of 8.
func encodeBody(s Scheme, body []byte, v []float64, scale float64, rng *rand.Rand) {
	switch s {
	case SchemeDense:
		for i, x := range v {
			binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(x))
		}
	case SchemeF32:
		for i, x := range v {
			binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(float32(x)))
		}
	case SchemeInt8:
		if scale == 0 {
			clear(body)
			return
		}
		// Stochastic rounding onto the ±127 grid: one draw per coordinate.
		for i, x := range v {
			t := x / scale * 127
			lo := math.Floor(t)
			q := int64(lo)
			if rng.Float64() < t-lo {
				q++
			}
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			body[i] = byte(int8(q))
		}
	case SchemeBit1:
		clear(body)
		for i, x := range v {
			if x >= 0 {
				body[i/8] |= 1 << (i % 8)
			}
		}
	}
}

// int8Grid[b] is float64(int8(b))/127, the grid point a SchemeInt8 body byte
// decodes to before scaling: a load per coordinate instead of a division,
// with the quotient the division gives.
var int8Grid = func() (g [256]float64) {
	for b := range g {
		g[b] = float64(int8(b)) / 127
	}
	return g
}()

// decodeBody is encodeBody's inverse on len(dst) coordinates.
func decodeBody(dst []float64, s Scheme, body []byte, scale float64) {
	switch s {
	case SchemeDense:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case SchemeF32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:])))
		}
	case SchemeInt8:
		for i := range dst {
			dst[i] = int8Grid[body[i]] * scale
		}
	case SchemeBit1:
		for i := range dst {
			if body[i/8]&(1<<(i%8)) != 0 {
				dst[i] = scale
			} else {
				dst[i] = -scale
			}
		}
	}
}

// EncodeInto encodes v into dst, which must be exactly EncodedBytes(s,
// len(v)) long. rng drives stochastic rounding (SchemeInt8) and may be nil
// for the deterministic schemes. It allocates nothing.
func EncodeInto(s Scheme, dst []byte, v []float64, rng *rand.Rand) {
	if !s.Valid() || len(dst) != EncodedBytes(s, len(v)) {
		panic(fmt.Sprintf("compress: encode under scheme %d into %d bytes for %d values", s, len(dst), len(v)))
	}
	encodeBody(s, dst[headerBytes(s):], v, putScale(s, dst, v), rng)
}

// DecodeInto decodes an s-encoded payload into dst, whose length must be
// the original element count. It returns an error (instead of panicking) on
// a size mismatch, because it sits on the wire path where src arrives from
// an untrusted peer. It allocates nothing.
func DecodeInto(dst []float64, s Scheme, src []byte) error {
	if err := checkPayload(s, len(dst), src); err != nil {
		return err
	}
	decodeBody(dst, s, src[headerBytes(s):], getScale(s, src))
	return nil
}

func checkPayload(s Scheme, n int, src []byte) error {
	if !s.Valid() {
		return fmt.Errorf("compress: decode with invalid scheme %d", s)
	}
	if want := EncodedBytes(s, n); len(src) != want {
		return fmt.Errorf("compress: %s payload has %d bytes, want %d for %d values", s, len(src), want, n)
	}
	return nil
}

// fusedBlock is how many coordinates the fused drivers take at a time: 4 KiB
// of floats, so a block's bytes and its decode are still in L1 for the next
// step, and a multiple of 8. Coordinates [lo, hi) of an s-payload p, lo on a
// block boundary, are p[EncodedBytes(s, lo):EncodedBytes(s, hi)].
const fusedBlock = 512

// EncodeResidual is EncodeInto for a sender that also needs what the peer
// will decode. One pass over u emits dst's bytes (EncodeInto's, with the same
// rng draws), returns RelError(u, decode(dst)) and, where the slices are
// non-nil, writes recon[i] = decode(dst)[i] and resid[i] = u[i] −
// decode(dst)[i] — the error-feedback carry. Either may be u itself. Every
// value comes from the body encoder, the body decoder and RelError's
// expression in its order: nothing differs from running the three one after
// another except the passes over memory.
func EncodeResidual(s Scheme, dst []byte, u []float64, rng *rand.Rand, recon, resid []float64) float64 {
	if !s.Valid() || len(dst) != EncodedBytes(s, len(u)) ||
		(recon != nil && len(recon) != len(u)) || (resid != nil && len(resid) != len(u)) {
		panic(fmt.Sprintf("compress: encode under scheme %d into %d bytes, %d and %d outputs for %d values",
			s, len(dst), len(recon), len(resid), len(u)))
	}
	scale := putScale(s, dst, u)
	var num, den float64
	var dec [fusedBlock]float64
	for lo := 0; lo < len(u); lo += fusedBlock {
		hi := min(lo+fusedBlock, len(u))
		body := dst[EncodedBytes(s, lo):EncodedBytes(s, hi)]
		encodeBody(s, body, u[lo:hi], scale, rng)
		decodeBody(dec[:hi-lo], s, body, scale)
		for i, r := range dec[:hi-lo] {
			x := u[lo+i]
			d := x - r
			num, den = num+d*d, den+x*x
			if recon != nil {
				recon[lo+i] = r
			}
			if resid != nil {
				resid[lo+i] = d
			}
		}
	}
	return relErr(num, den)
}

// DecodeAddInto is DecodeInto followed by dst[i] += ref[i] in one pass: the
// receiver's rebuild of a difference-coded payload. dst may be ref itself.
func DecodeAddInto(dst, ref []float64, s Scheme, src []byte) error {
	if err := checkPayload(s, len(dst), src); err != nil {
		return err
	}
	if len(ref) != len(dst) {
		return fmt.Errorf("compress: %d-value payload on a %d-value reference", len(dst), len(ref))
	}
	scale := getScale(s, src)
	var dec [fusedBlock]float64
	for lo := 0; lo < len(dst); lo += fusedBlock {
		hi := min(lo+fusedBlock, len(dst))
		decodeBody(dec[:hi-lo], s, src[EncodedBytes(s, lo):EncodedBytes(s, hi)], scale)
		for i, r := range dec[:hi-lo] {
			dst[lo+i] = r + ref[lo+i]
		}
	}
	return nil
}

// RNG derives the compressor's stochastic-rounding stream for one
// (seed, round, client) triple — the same keying family as fl.roundRNG and
// the transport's cohortRNG, so stochastic quantization reproduces bitwise
// across kill-and-resume and round retries instead of consuming a
// session-long sequential stream.
func RNG(seed int64, round, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(round)*7919 + int64(client+1)*104729 + 7))
}

// RNGFor is RNG for an encode under s, and nil where s draws nothing —
// seeding a math/rand source costs a 607-word pass nobody would read.
func RNGFor(s Scheme, seed int64, round, client int) *rand.Rand {
	if !s.Stochastic() {
		return nil
	}
	return RNG(seed, round, client)
}

// RelError returns the relative L2 reconstruction error ‖v − recon‖/‖v‖
// (0 for a zero input), the quantity the compression telemetry histograms.
func RelError(v, recon []float64) float64 {
	num, den := 0.0, 0.0
	for i := range v {
		d := v[i] - recon[i]
		num += d * d
		den += v[i] * v[i]
	}
	return relErr(num, den)
}

func relErr(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
