package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestSchemeStringsAndParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scheme
	}{
		{"", SchemeDense}, {"dense", SchemeDense}, {"none", SchemeDense}, {"identity", SchemeDense},
		{"f32", SchemeF32}, {"float32", SchemeF32},
		{"q8", SchemeInt8}, {"int8", SchemeInt8},
		{"q1", SchemeBit1}, {"1bit", SchemeBit1}, {"sign", SchemeBit1},
	} {
		got, err := ParseScheme(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if _, err := ParseScheme("zstd"); err == nil {
		t.Fatal("unknown scheme name must error")
	}
	// Round trip through String for every valid scheme.
	for s := SchemeDense; s < numSchemes; s++ {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%v.String()) = %v, %v", s, got, err)
		}
	}
	if Scheme(200).Valid() {
		t.Fatal("scheme 200 must be invalid")
	}
}

func TestCapsAndNegotiate(t *testing.T) {
	all := AllCaps()
	for s := SchemeDense; s < numSchemes; s++ {
		if !all.Has(s) {
			t.Fatalf("AllCaps missing %v", s)
		}
		if got := Negotiate(s, all); got != s {
			t.Fatalf("Negotiate(%v, all) = %v", s, got)
		}
	}
	// Dense is always implied, even by a zero mask.
	var none Caps
	if !none.Has(SchemeDense) {
		t.Fatal("dense must always be supported")
	}
	if got := Negotiate(SchemeInt8, none); got != SchemeDense {
		t.Fatalf("Negotiate against empty caps = %v, want dense", got)
	}
	// A restricted peer only yields what it advertised.
	caps := CapsOf(SchemeInt8)
	if !caps.Has(SchemeInt8) || caps.Has(SchemeBit1) || caps.Has(SchemeF32) {
		t.Fatalf("CapsOf(q8) = %b", caps)
	}
	if got := Negotiate(SchemeBit1, caps); got != SchemeDense {
		t.Fatalf("Negotiate(q1, caps{q8}) = %v, want dense", got)
	}
	// Unknown future bits and unknown preferred schemes degrade to dense.
	future := Caps(1) << 17
	if future.Has(Scheme(17)) {
		t.Fatal("unknown scheme bit must not validate")
	}
	if got := Negotiate(Scheme(17), all|future); got != SchemeDense {
		t.Fatalf("Negotiate(unknown, ...) = %v, want dense", got)
	}
}

func TestEncodedBytesPerScheme(t *testing.T) {
	for _, tc := range []struct {
		s    Scheme
		n    int
		want int
	}{
		{SchemeDense, 100, 800},
		{SchemeF32, 100, 400},
		{SchemeInt8, 100, 104},
		{SchemeBit1, 100, 4 + 13},
		{SchemeBit1, 0, 4},
		{SchemeDense, 0, 0},
	} {
		if got := EncodedBytes(tc.s, tc.n); got != tc.want {
			t.Fatalf("EncodedBytes(%v, %d) = %d, want %d", tc.s, tc.n, got, tc.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	v := randVec(rng, 257) // odd length exercises the bit1 tail byte
	for s := SchemeDense; s < numSchemes; s++ {
		dst := make([]byte, EncodedBytes(s, len(v)))
		EncodeInto(s, dst, v, rng)
		back := make([]float64, len(v))
		if err := DecodeInto(back, s, dst); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		switch s {
		case SchemeDense:
			for i := range v {
				if back[i] != v[i] {
					t.Fatal("dense must be exact")
				}
			}
		case SchemeF32:
			for i := range v {
				if back[i] != float64(float32(v[i])) {
					t.Fatal("f32 must round-trip through float32")
				}
			}
		default:
			if rel := RelError(v, back); rel <= 0 || rel > 2 {
				t.Fatalf("%v: relative error %v out of range", s, rel)
			}
		}
	}
}

func TestEncodeInt8Unbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	v := []float64{0.3, -0.7, 1.0, 0.05, -0.001}
	dst := make([]byte, EncodedBytes(SchemeInt8, len(v)))
	back := make([]float64, len(v))
	sum := make([]float64, len(v))
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		EncodeInto(SchemeInt8, dst, v, rng)
		if err := DecodeInto(back, SchemeInt8, dst); err != nil {
			t.Fatal(err)
		}
		for i, x := range back {
			sum[i] += x
		}
	}
	for i := range v {
		if mean := sum[i] / trials; math.Abs(mean-v[i]) > 0.005 {
			t.Fatalf("coordinate %d: E[decode(encode(v))] = %v, want %v", i, mean, v[i])
		}
	}
}

func TestEncodeZeroAndNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	zero := make([]float64, 16)
	back := make([]float64, 16)
	for _, s := range []Scheme{SchemeInt8, SchemeBit1} {
		dst := make([]byte, EncodedBytes(s, len(zero)))
		EncodeInto(s, dst, zero, rng)
		if err := DecodeInto(back, s, dst); err != nil {
			t.Fatal(err)
		}
		for _, x := range back {
			if x != 0 {
				t.Fatalf("%v: zero vector must survive, got %v", s, back)
			}
		}
	}
	// A non-finite coordinate must not poison the int8 grid.
	inf := []float64{1, math.Inf(1), -2}
	dst := make([]byte, EncodedBytes(SchemeInt8, len(inf)))
	EncodeInto(SchemeInt8, dst, inf, rng)
	back = back[:len(inf)]
	if err := DecodeInto(back, SchemeInt8, dst); err != nil {
		t.Fatal(err)
	}
	for _, x := range back {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("int8 decode of non-finite input produced %v", back)
		}
	}
}

func TestDecodeIntoRejectsBadSizes(t *testing.T) {
	dst := make([]float64, 10)
	if err := DecodeInto(dst, SchemeInt8, make([]byte, 5)); err == nil {
		t.Fatal("short int8 payload accepted")
	}
	if err := DecodeInto(dst, SchemeDense, make([]byte, 81)); err == nil {
		t.Fatal("oversized dense payload accepted")
	}
	if err := DecodeInto(dst, Scheme(99), make([]byte, 80)); err == nil {
		t.Fatal("invalid scheme accepted")
	}
}

// The compressor RNG is keyed per (seed, round, client): same key → bitwise
// identical stochastic quantization; different key in any component → a
// different stream. This is what makes compressed kill-and-resume bitwise
// reproducible.
func TestRNGKeyedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	v := randVec(rng, 512)
	enc := func(seed int64, round, client int) []byte {
		dst := make([]byte, EncodedBytes(SchemeInt8, len(v)))
		EncodeInto(SchemeInt8, dst, v, RNG(seed, round, client))
		return dst
	}
	a, b := enc(5, 3, 2), enc(5, 3, 2)
	if !bytes.Equal(a, b) {
		t.Fatal("same (seed, round, client) must quantize bitwise identically")
	}
	for _, other := range [][3]int64{{6, 3, 2}, {5, 4, 2}, {5, 3, 1}} {
		if bytes.Equal(a, enc(other[0], int(other[1]), int(other[2]))) {
			t.Fatalf("key %v must yield a different stream", other)
		}
	}
}

func TestRelError(t *testing.T) {
	v := []float64{3, 4}
	if got := RelError(v, []float64{3, 4}); got != 0 {
		t.Fatalf("exact reconstruction rel error = %v", got)
	}
	if got := RelError(v, []float64{0, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero reconstruction rel error = %v, want 1", got)
	}
	if got := RelError([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Fatalf("zero input rel error = %v, want 0", got)
	}
}

// The wire hot path must allocate nothing: encode and decode run once per
// client per round on vectors of model size.
func TestWireHotPathZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	v := randVec(rng, 4096)
	back := make([]float64, len(v))
	for s := SchemeDense; s < numSchemes; s++ {
		dst := make([]byte, EncodedBytes(s, len(v)))
		if n := testing.AllocsPerRun(50, func() {
			EncodeInto(s, dst, v, rng)
		}); n != 0 {
			t.Fatalf("EncodeInto(%v) allocates %v/op", s, n)
		}
		EncodeInto(s, dst, v, rng)
		if n := testing.AllocsPerRun(50, func() {
			if err := DecodeInto(back, s, dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("DecodeInto(%v) allocates %v/op", s, n)
		}
		// The fused calls the round loop actually makes, in place.
		u := append([]float64(nil), v...)
		if n := testing.AllocsPerRun(50, func() {
			EncodeResidual(s, dst, u, rng, nil, u)
			if err := DecodeAddInto(back, back, s, dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("EncodeResidual+DecodeAddInto(%v) allocate %v/op", s, n)
		}
	}
}

func TestObserveReconError(t *testing.T) {
	before, sum0 := ReconErr(SchemeInt8)
	ObserveReconError(SchemeInt8, 0.01)
	ObserveReconError(SchemeDense, 0.01) // lossless: ignored
	ObserveReconError(Scheme(99), 0.01)  // invalid: ignored
	if got, sum := ReconErr(SchemeInt8); got != before+1 || math.Abs(sum-sum0-0.01) > 1e-12 {
		t.Fatalf("recon error count, sum = %d, %v; want %d, %v", got, sum, before+1, sum0+0.01)
	}
	if n, _ := ReconErr(SchemeDense); n != 0 {
		t.Fatal("dense recon count must be 0")
	}
	if n, _ := ReconErr(Scheme(99)); n != 0 {
		t.Fatal("invalid scheme recon count must be 0")
	}
}
