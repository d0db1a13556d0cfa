package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewShapeAndSize(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Rank() != 3 || tt.Size() != 24 {
		t.Fatalf("got rank=%d size=%d, want 3, 24", tt.Rank(), tt.Size())
	}
	if tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("bad dims: %v", tt.Shape())
	}
	for _, v := range tt.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 1, 2)
	if tt.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", tt.At(1, 2))
	}
	if tt.Data[1*4+2] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	_ = tt.At(2, 0)
}

func TestFromSliceSharesStorage(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	tt := FromSlice(data, 2, 2)
	data[0] = 9
	if tt.At(0, 0) != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data[0] = 100
	if a.Data[0] != 1 {
		t.Fatal("Clone must copy storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 1)
	if a.Data[1] != 99 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size-changing reshape")
		}
	}()
	a.Reshape(4, 2)
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = -1
	if a.At(1, 0) != -1 {
		t.Fatal("Row must be a view")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(a, 2).Data; got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	a.AddInPlace(b)
	if a.Data[1] != 22 {
		t.Fatalf("AddInPlace: %v", a.Data)
	}
	a.SubInPlace(b)
	if a.Data[0] != 1 {
		t.Fatalf("SubInPlace: %v", a.Data)
	}
	a.Axpy(0.5, b)
	if a.Data[0] != 6 || a.Data[1] != 12 {
		t.Fatalf("Axpy: %v", a.Data)
	}
	a.ScaleInPlace(2)
	if a.Data[0] != 12 {
		t.Fatalf("ScaleInPlace: %v", a.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if a.Sum() != 10 || a.Mean() != 2.5 {
		t.Fatalf("Sum/Mean = %v/%v", a.Sum(), a.Mean())
	}
	if !almostEqual(a.Norm(), math.Sqrt(30), 1e-12) {
		t.Fatalf("Norm = %v", a.Norm())
	}
	b := FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	if Dot(a, b) != 10 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if SquaredDistance(a, b) != 0+1+4+9 {
		t.Fatalf("SquaredDistance = %v", SquaredDistance(a, b))
	}
}

func TestColMeanAndSums(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 5}, 2, 2)
	m := ColMean(a)
	if m[0] != 2 || m[1] != 3.5 {
		t.Fatalf("ColMean = %v", m)
	}
	s := ColSums(a)
	if s[0] != 4 || s[1] != 7 {
		t.Fatalf("ColSums = %v", s)
	}
}

func TestAddRowVector(t *testing.T) {
	a := New(2, 3)
	a.AddRowVector([]float64{1, 2, 3})
	if a.At(0, 2) != 3 || a.At(1, 0) != 1 {
		t.Fatalf("AddRowVector: %v", a.Data)
	}
}

func TestMaxIndex(t *testing.T) {
	if MaxIndex([]float64{0.1, 3, -2, 3}) != 1 {
		t.Fatal("MaxIndex must return first max")
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 65}, {200, 50, 120}} {
		a := RandNormal(rng, 1, dims[0], dims[1])
		b := RandNormal(rng, 1, dims[1], dims[2])
		want := naiveMatMul(a, b)
		got := MatMul(a, b)
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("dims %v: MatMul[%d] = %v, want %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Set(a.At(i, j), j, i)
		}
	}
	return out
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := RandNormal(rng, 1, 13, 7)
	b := RandNormal(rng, 1, 11, 7)  // for a·bᵀ
	c := RandNormal(rng, 1, 13, 11) // for aᵀ·c
	wantTB := naiveMatMul(a, transpose(b))
	gotTB := MatMulTransB(a, b)
	for i := range wantTB.Data {
		if !almostEqual(gotTB.Data[i], wantTB.Data[i], 1e-9) {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
	wantTA := naiveMatMul(transpose(a), c)
	gotTA := MatMulTransA(a, c)
	for i := range wantTA.Data {
		if !almostEqual(gotTA.Data[i], wantTA.Data[i], 1e-9) {
			t.Fatalf("MatMulTransA mismatch at %d", i)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected inner-dimension panic")
		}
	}()
	MatMul(a, b)
}

func TestEncodeDecodeFloats(t *testing.T) {
	v := []float64{0, -1.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFloats(&buf, len(v))
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("floats[%d] = %v, want %v", i, got[i], v[i])
		}
	}
}

func TestRandomInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := GlorotUniform(rng, 100, 100, 100, 100)
	limit := math.Sqrt(6.0 / 200.0)
	for _, v := range g.Data {
		if v < -limit || v >= limit {
			t.Fatalf("Glorot sample %v outside [-%v, %v)", v, limit, limit)
		}
	}
	h := RandNormal(rng, 0.5, 10000)
	mean, sq := 0.0, 0.0
	for _, v := range h.Data {
		mean += v
		sq += v * v
	}
	mean /= float64(h.Size())
	std := math.Sqrt(sq/float64(h.Size()) - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(std-0.5) > 0.05 {
		t.Fatalf("RandNormal stats mean=%v std=%v", mean, std)
	}
	he := HeNormal(rng, 8, 1000)
	if he.Size() != 1000 {
		t.Fatal("HeNormal size")
	}
}

// Property: Add is commutative and Sub(Add(a,b), b) == a.
func TestQuickAddProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		a := FromSlice(raw, len(raw))
		b := RandNormal(rand.New(rand.NewSource(int64(len(raw)))), 1, len(raw))
		ab, ba := Add(a, b), Add(b, a)
		for i := range ab.Data {
			if ab.Data[i] != ba.Data[i] {
				return false
			}
		}
		back := Sub(ab, b)
		for i := range back.Data {
			if !almostEqual(back.Data[i], a.Data[i], 1e-6*(1+math.Abs(a.Data[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandNormal(rng, 1, m, k)
		b := RandNormal(rng, 1, k, n)
		c := RandNormal(rng, 1, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 128, 128)
	y := RandNormal(rng, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulTransB128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 128, 128)
	y := RandNormal(rng, 1, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}
