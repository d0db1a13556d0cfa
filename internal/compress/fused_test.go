package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEncodeInto is EncodeInto as it stood before the scale and rounding
// helpers were factored out, kept verbatim: the bytes every other encoder in
// the package must reproduce.
func refEncodeInto(s Scheme, dst []byte, v []float64, rng *rand.Rand) {
	switch s {
	case SchemeDense:
		for i, x := range v {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
		}
	case SchemeF32:
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(x)))
		}
	case SchemeInt8:
		maxAbs := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		scale := float64(float32(maxAbs))
		if scale == 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
			binary.LittleEndian.PutUint32(dst, 0)
			for i := range v {
				dst[4+i] = 0
			}
			return
		}
		binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(maxAbs)))
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
			dst[4+i] = byte(int8(q))
		}
	case SchemeBit1:
		sum := 0.0
		for _, x := range v {
			sum += math.Abs(x)
		}
		scale := 0.0
		if len(v) > 0 {
			scale = sum / float64(len(v))
		}
		if math.IsInf(scale, 0) || math.IsNaN(scale) {
			scale = 0
		}
		binary.LittleEndian.PutUint32(dst, math.Float32bits(float32(scale)))
		for i := 4; i < len(dst); i++ {
			dst[i] = 0
		}
		for i, x := range v {
			if x >= 0 {
				dst[4+i/8] |= 1 << (i % 8)
			}
		}
	}
}

// refEncodeResidual is the three-step pipeline every lossy sender ran before
// EncodeResidual: encode, self-decode into a second buffer, measure, subtract.
func refEncodeResidual(s Scheme, dst []byte, u []float64, rng *rand.Rand) (recon, resid []float64, rel float64) {
	refEncodeInto(s, dst, u, rng)
	recon = make([]float64, len(u))
	if err := DecodeInto(recon, s, dst); err != nil {
		panic(err)
	}
	rel = RelError(u, recon)
	resid = make([]float64, len(u))
	for i := range u {
		resid[i] = u[i] - recon[i]
	}
	return recon, resid, rel
}

// fusedInputs are the vectors the bit-identity tests run on: every branch of
// every scheme's scale computation, including the degenerate ones that write
// an all-zero payload.
func fusedInputs(n int) map[string][]float64 {
	normal := randVec(rand.New(rand.NewSource(int64(31+n))), n)
	with := func(i int, x float64) []float64 {
		v := append([]float64(nil), normal...)
		if n > 0 {
			v[i%n] = x
		}
		return v
	}
	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = normal[i] * 1e-315 // float64 subnormals: the float32 scale flushes to 0
	}
	small := make([]float64, n)
	for i := range small {
		small[i] = normal[i] * 1e-40 // a float32-subnormal scale, still non-zero
	}
	return map[string][]float64{
		"normal":      normal,
		"zero":        make([]float64, n),
		"nan":         with(n/2, math.NaN()),
		"+inf":        with(n/3, math.Inf(1)),
		"-inf":        with(n-1, math.Inf(-1)),
		"f32overflow": with(n/2, 1e300),
		"subnormal":   tiny,
		"f32subnorm":  small,
	}
}

func sameBits(a, b []float64) bool {
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

// EncodeResidual must be indistinguishable from encode → decode → RelError →
// subtract: wire bytes, reconstruction, residual, returned error and the
// number of rng draws, for every scheme, length, input class and output
// aliasing the callers use.
func TestEncodeResidualMatchesPipeline(t *testing.T) {
	for s := SchemeDense; s < numSchemes; s++ {
		for _, n := range []int{0, 1, 7, 8, 9, 48, 125978} {
			for name, u := range fusedInputs(n) {
				nb := EncodedBytes(s, n)
				wantB := make([]byte, nb)
				refRNG := rand.New(rand.NewSource(77))
				wantRecon, wantResid, wantRel := refEncodeResidual(s, wantB, u, refRNG)
				wantNext := refRNG.Int63()

				check := func(mode string, ef bool, run func(dst []byte, rng *rand.Rand) (recon, resid []float64, rel float64)) {
					t.Helper()
					id := fmt.Sprintf("%v n=%d %s %s ef=%v", s, n, name, mode, ef)
					gotB := bytes.Repeat([]byte{0xA5}, nb) // stale bytes must all be overwritten
					rng := rand.New(rand.NewSource(77))
					recon, resid, rel := run(gotB, rng)
					if !bytes.Equal(gotB, wantB) {
						t.Fatalf("%s: wire bytes differ", id)
					}
					if math.Float64bits(rel) != math.Float64bits(wantRel) {
						t.Fatalf("%s: error %v, want %v", id, rel, wantRel)
					}
					if recon != nil && !sameBits(recon, wantRecon) {
						t.Fatalf("%s: reconstruction differs", id)
					}
					if resid != nil && !sameBits(resid, wantResid) {
						t.Fatalf("%s: residual differs", id)
					}
					if rng.Int63() != wantNext {
						t.Fatalf("%s: rng stream consumed differently", id)
					}
				}
				for _, ef := range []bool{false, true} {
					// The transport client: residual in place when error
					// feedback is on, nothing otherwise.
					check("client", ef, func(dst []byte, rng *rand.Rand) ([]float64, []float64, float64) {
						v := append([]float64(nil), u...)
						var resid []float64
						if ef {
							resid = v
						}
						return nil, resid, EncodeResidual(s, dst, v, rng, nil, resid)
					})
					// The simulator: reconstruction in place, residual into
					// the client's carry.
					check("sim", ef, func(dst []byte, rng *rand.Rand) ([]float64, []float64, float64) {
						v := append([]float64(nil), u...)
						var resid []float64
						if ef {
							resid = make([]float64, n)
						}
						return v, resid, EncodeResidual(s, dst, v, rng, v, resid)
					})
				}
				// The server's shared broadcast: reconstruction into a second
				// buffer, the source untouched.
				check("server", false, func(dst []byte, rng *rand.Rand) ([]float64, []float64, float64) {
					v := append([]float64(nil), u...)
					recon := make([]float64, n)
					rel := EncodeResidual(s, dst, v, rng, recon, nil)
					if !sameBits(v, u) {
						t.Fatalf("%v n=%d %s: source modified", s, n, name)
					}
					return recon, nil, rel
				})
				// EncodeInto itself went through the same helpers.
				gotB := bytes.Repeat([]byte{0xA5}, nb)
				EncodeInto(s, gotB, u, rand.New(rand.NewSource(77)))
				if !bytes.Equal(gotB, wantB) {
					t.Fatalf("%v n=%d %s: EncodeInto bytes differ from the reference", s, n, name)
				}
			}
		}
	}
}

// DecodeAddInto must equal DecodeInto followed by += ref, in place or not, and
// reject what DecodeInto rejects.
func TestDecodeAddIntoMatchesDecodeThenAdd(t *testing.T) {
	for s := SchemeDense; s < numSchemes; s++ {
		for _, n := range []int{0, 1, 7, 8, 9, 48, 4099} {
			for name, u := range fusedInputs(n) {
				src := make([]byte, EncodedBytes(s, n))
				EncodeInto(s, src, u, rand.New(rand.NewSource(5)))
				if name == "nan" && n > 4 && headerBytes(s) > 0 {
					// A forged scale: the server must see the NaN it produces.
					binary.LittleEndian.PutUint32(src, math.Float32bits(float32(math.NaN())))
				}
				ref := randVec(rand.New(rand.NewSource(6)), n)
				want := make([]float64, n)
				if err := DecodeInto(want, s, src); err != nil {
					t.Fatal(err)
				}
				if s == SchemeInt8 {
					// DecodeInto's grid lookup against the division it replaced.
					scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(src)))
					for i := range want {
						if old := float64(int8(src[4+i])) / 127 * scale; math.Float64bits(old) != math.Float64bits(want[i]) {
							t.Fatalf("q8 n=%d %s: decode[%d] = %v, the division gives %v", n, name, i, want[i], old)
						}
					}
				}
				for i := range want {
					want[i] += ref[i]
				}
				got := make([]float64, n)
				if err := DecodeAddInto(got, ref, s, src); err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("%v n=%d %s: rebuilt vector differs", s, n, name)
				}
				inPlace := append([]float64(nil), ref...)
				if err := DecodeAddInto(inPlace, inPlace, s, src); err != nil {
					t.Fatal(err)
				}
				if !sameBits(inPlace, want) {
					t.Fatalf("%v n=%d %s: in-place rebuild differs", s, n, name)
				}
			}
		}
		if err := DecodeAddInto(make([]float64, 8), make([]float64, 8), s, make([]byte, 3)); err == nil {
			t.Fatalf("%v: short payload accepted", s)
		}
		if err := DecodeAddInto(make([]float64, 8), make([]float64, 7), s, make([]byte, EncodedBytes(s, 8))); err == nil {
			t.Fatalf("%v: short reference accepted", s)
		}
	}
	if err := DecodeAddInto(nil, nil, Scheme(9), nil); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

// RNGFor hands the stochastic scheme RNG's stream and the others nothing.
func TestRNGForOnlySeedsStochasticSchemes(t *testing.T) {
	for s := SchemeDense; s < numSchemes; s++ {
		rng := RNGFor(s, 3, 4, 5)
		if !s.Stochastic() {
			if rng != nil {
				t.Fatalf("%v draws no randomness but got an RNG", s)
			}
			continue
		}
		if rng == nil || rng.Int63() != RNG(3, 4, 5).Int63() {
			t.Fatalf("%v: RNGFor is not RNG's stream", s)
		}
	}
}

func benchVec() []float64 { return randVec(rand.New(rand.NewSource(9)), 125978) }

func BenchmarkEncodeResidual(b *testing.B) {
	for _, s := range []Scheme{SchemeF32, SchemeInt8, SchemeBit1} {
		u := benchVec()
		dst := make([]byte, EncodedBytes(s, len(u)))
		recon := make([]float64, len(u))
		resid := make([]float64, len(u))
		rng := rand.New(rand.NewSource(1))
		b.Run(s.String()+"/pipeline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EncodeInto(s, dst, u, rng)
				if err := DecodeInto(recon, s, dst); err != nil {
					b.Fatal(err)
				}
				sinkF = RelError(u, recon)
				for j := range resid {
					resid[j] = u[j] - recon[j]
				}
			}
		})
		b.Run(s.String()+"/fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkF = EncodeResidual(s, dst, u, rng, nil, resid)
			}
		})
	}
}

func BenchmarkDecodeAddInto(b *testing.B) {
	u, ref := benchVec(), benchVec()
	dst := make([]float64, len(u))
	src := make([]byte, EncodedBytes(SchemeInt8, len(u)))
	EncodeInto(SchemeInt8, src, u, rand.New(rand.NewSource(1)))
	b.Run("decode+add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := DecodeInto(dst, SchemeInt8, src); err != nil {
				b.Fatal(err)
			}
			for j := range dst {
				dst[j] += ref[j]
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := DecodeAddInto(dst, ref, SchemeInt8, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

var sinkF float64
