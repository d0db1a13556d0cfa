package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

func TestMMDZeroOnIdenticalMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandNormal(rng, 1, 10, 4)
	if got := MMD(a, a.Clone()); got != 0 {
		t.Fatalf("MMD(a,a) = %v", got)
	}
}

func TestMMDDetectsMeanShift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandNormal(rng, 1, 500, 4)
	b := tensor.RandNormal(rng, 1, 500, 4)
	for i := range b.Data {
		b.Data[i] += 2
	}
	got := MMD(a, b)
	want := math.Sqrt(4.0 * 4.0) // shift 2 in each of 4 dims → ‖Δ‖ = 2·√4 = 4
	if math.Abs(got-want) > 0.3 {
		t.Fatalf("MMD = %v, want ≈ %v", got, want)
	}
}

// Property: MMD over means is a metric-like quantity — symmetric,
// non-negative, and satisfies the triangle inequality.
func TestQuickMMDMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(6)
		mk := func() []float64 {
			v := make([]float64, d)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}
		a, b, c := mk(), mk(), mk()
		dab := math.Sqrt(MMDSquaredMeans(a, b))
		dba := math.Sqrt(MMDSquaredMeans(b, a))
		dac := math.Sqrt(MMDSquaredMeans(a, c))
		dcb := math.Sqrt(MMDSquaredMeans(c, b))
		if dab < 0 || math.Abs(dab-dba) > 1e-12 {
			return false
		}
		return dab <= dac+dcb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRegFeatureGradNumeric checks the regularizer's feature-level gradient
// against finite differences of RegLoss.
func TestRegFeatureGradNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	feat := tensor.RandNormal(rng, 1, 6, 5)
	target := make([]float64, 5)
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	const lambda = 0.3
	grad := regGrad(nn.NewArena(), feat, target, lambda)
	const eps, tol = 1e-6, 1e-7
	for i := range feat.Data {
		orig := feat.Data[i]
		feat.Data[i] = orig + eps
		up := RegLoss(feat, target, lambda)
		feat.Data[i] = orig - eps
		down := RegLoss(feat, target, lambda)
		feat.Data[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(grad.Data[i]-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], want)
		}
	}
}

func TestComputeDeltaMatchesManualMean(t *testing.T) {
	net := nn.NewMLP(4, 6, 3, 2)(1)
	ds := data.SynthMNIST(10, 1)
	// Build a small dataset with 4 features from slices of MNIST pixels.
	x := tensor.New(10, 4)
	for i := 0; i < 10; i++ {
		copy(x.Row(i), ds.X.Row(i)[:4])
	}
	small := &data.Dataset{X: x, Y: ds.Y[:10], Classes: 10}

	for _, batch := range []int{3, 10, 256} {
		delta := make([]float64, net.FeatureDim)
		ComputeDeltaInto(delta, nn.NewArena(), net, small, batch)
		feat := net.Features(small.X)
		want := tensor.ColMean(feat)
		for j := range want {
			if math.Abs(delta[j]-want[j]) > 1e-12 {
				t.Fatalf("batch %d: delta[%d] = %v, want %v", batch, j, delta[j], want[j])
			}
		}
	}
}

// TestComputeDeltaBatchInvariant: the batch only bounds the gather buffer.
// Every forward computes a sample's features from that sample alone in a
// fixed reduction order, and the column sums add rows in shard order, so δ is
// the same to the bit however the shard is cut into batches — which is why
// the algorithms and the transport client pass a constant, not an option.
func TestComputeDeltaBatchInvariant(t *testing.T) {
	ds := data.SynthMNIST(300, 3)
	for name, build := range map[string]nn.Builder{
		"cnn": nn.NewImageCNN(data.SynthMNISTSpec, 24),
		"mlp": nn.NewMLP(ds.Features(), 64, 24, ds.Classes),
	} {
		net := build(5)
		arena := nn.NewArena()
		want, got := make([]float64, net.FeatureDim), make([]float64, net.FeatureDim)
		ComputeDeltaInto(want, arena, net, ds, ds.Len())
		for _, batch := range []int{1, 7, 32, 256} {
			ComputeDeltaInto(got, arena, net, ds, batch)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s batch %d: delta[%d] = %v, batch %d gives %v", name, batch, j, got[j], ds.Len(), want[j])
				}
			}
		}
	}
}

func TestDeltaTable(t *testing.T) {
	tab := NewDeltaTable(3, 2)
	tab.Set(0, []float64{1, 0})
	tab.Set(1, []float64{3, 0})
	tab.Set(2, []float64{5, 6})
	m := tab.MeanExcluding(2)
	if m[0] != 2 || m[1] != 0 {
		t.Fatalf("MeanExcluding(2) = %v", m)
	}
	// Pairwise objective for client 0: (‖(1,0)-(3,0)‖² + ‖(1,0)-(5,6)‖²)/2
	want := (4.0 + (16 + 36)) / 2
	if got := tab.PairwiseObjective(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PairwiseObjective(0) = %v, want %v", got, want)
	}
}

func TestPairwiseMMDInto(t *testing.T) {
	tab := NewDeltaTable(3, 2)
	tab.Set(0, []float64{1, 0})
	tab.Set(1, []float64{4, 4}) // ‖(1,0)-(4,4)‖ = 5
	tab.Set(2, []float64{1, 0}) // identical to row 0

	m := tab.PairwiseMMDInto(nil)
	if len(m) != 9 {
		t.Fatalf("matrix length %d, want 9", len(m))
	}
	for i := 0; i < 3; i++ {
		if m[i*3+i] != 0 {
			t.Errorf("diagonal [%d][%d] = %v, want 0", i, i, m[i*3+i])
		}
		for j := 0; j < 3; j++ {
			if m[i*3+j] != m[j*3+i] {
				t.Errorf("asymmetric at (%d,%d): %v vs %v", i, j, m[i*3+j], m[j*3+i])
			}
		}
	}
	if math.Abs(m[0*3+1]-5) > 1e-12 {
		t.Errorf("m[0][1] = %v, want 5", m[0*3+1])
	}
	if m[0*3+2] != 0 {
		t.Errorf("m[0][2] = %v, want 0 (identical maps)", m[0*3+2])
	}
	// Entries must agree with the scalar MMD helper.
	if want := math.Sqrt(MMDSquaredMeans(tab.Get(1), tab.Get(2))); math.Abs(m[1*3+2]-want) > 1e-12 {
		t.Errorf("m[1][2] = %v, want %v", m[1*3+2], want)
	}

	// A preallocated buffer of sufficient capacity is reused, not regrown.
	buf := make([]float64, 0, 9)
	out := tab.PairwiseMMDInto(buf)
	if &out[0] != &buf[:1][0] {
		t.Error("PairwiseMMDInto reallocated despite sufficient capacity")
	}
}

// With MaxStale set, rows whose age exceeds the bound drop out of the
// δ̄^{-k} target, and the mean renormalizes over the fresh contributors.
func TestDeltaTableStalenessFallback(t *testing.T) {
	tab := NewDeltaTable(3, 2)
	tab.MaxStale = 2
	tab.Set(0, []float64{1, 0})
	tab.Set(1, []float64{3, 0})
	tab.Set(2, []float64{5, 6})

	// Fresh table: identical to the unbounded behavior.
	if m := tab.MeanExcluding(2); m[0] != 2 || m[1] != 0 {
		t.Fatalf("fresh MeanExcluding(2) = %v", m)
	}

	// Client 1 goes silent for 3 rounds; clients 0 and 2 keep refreshing.
	for i := 0; i < 3; i++ {
		tab.Tick()
		tab.Set(0, []float64{1, 0})
		tab.Set(2, []float64{5, 6})
	}
	if tab.Age(1) != 3 || tab.Age(0) != 0 {
		t.Fatalf("ages = %d, %d; want 3, 0", tab.Age(1), tab.Age(0))
	}
	// Row 1 (age 3 > MaxStale 2) is excluded: target for 2 is row 0 alone.
	if m := tab.MeanExcluding(2); m[0] != 1 || m[1] != 0 {
		t.Fatalf("stale-aware MeanExcluding(2) = %v, want [1 0]", m)
	}
	// A rejoining client's Set resets its age and restores it as a contributor.
	tab.Set(1, []float64{3, 0})
	if m := tab.MeanExcluding(2); m[0] != 2 || m[1] != 0 {
		t.Fatalf("post-rejoin MeanExcluding(2) = %v, want [2 0]", m)
	}
	// Degenerate case: everyone else stale → zero target, not NaN.
	tab.SetAge(0, 9)
	tab.SetAge(1, 9)
	if m := tab.MeanExcluding(2); m[0] != 0 || m[1] != 0 {
		t.Fatalf("all-stale MeanExcluding(2) = %v, want zeros", m)
	}
}

// Property: r̃_k (tight form) lower-bounds r_k (pairwise form), with
// equality when all other maps coincide — the Sec. IV-C claim.
func TestQuickTightObjectiveLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(5), 1+rng.Intn(4)
		tab := NewDeltaTable(n, d)
		for k := 0; k < n; k++ {
			row := make([]float64, d)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			tab.Set(k, row)
		}
		for k := 0; k < n; k++ {
			if tab.TightObjective(k) > tab.PairwiseObjective(k)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTightEqualsPairwiseWhenOthersEqual(t *testing.T) {
	tab := NewDeltaTable(4, 3)
	tab.Set(0, []float64{1, 2, 3})
	same := []float64{-1, 0, 1}
	for k := 1; k < 4; k++ {
		tab.Set(k, same)
	}
	if math.Abs(tab.TightObjective(0)-tab.PairwiseObjective(0)) > 1e-12 {
		t.Fatalf("tight %v != pairwise %v", tab.TightObjective(0), tab.PairwiseObjective(0))
	}
}

// tinyFederation mirrors the fl test helper: small MLP on SynthMNIST.
func tinyFederation(t *testing.T, clients int, similarity float64) *fl.Federation {
	t.Helper()
	train := data.SynthMNIST(600, 1)
	test := data.SynthMNIST(300, 2)
	rng := rand.New(rand.NewSource(3))
	parts := data.PartitionBySimilarity(train.Y, clients, similarity, rng)
	shards := make([]*data.Dataset, clients)
	for k, idx := range parts {
		shards[k] = train.Subset(idx)
	}
	cfg := fl.Config{
		Builder:    nn.NewMLP(train.Features(), 32, 16, train.Classes),
		ModelSeed:  7,
		Seed:       11,
		LocalSteps: 5,
		BatchSize:  20,
		LR:         opt.ConstLR(0.1),
	}
	return fl.NewFederation(cfg, shards, test)
}

func TestRFedAvgLearns(t *testing.T) {
	f := tinyFederation(t, 4, 0.0)
	a := NewRFedAvg(1e-3)
	h := fl.Run(f, a, 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("rFedAvg accuracy %v", h.FinalAccuracy(2))
	}
	// The δ table must be populated after training.
	norm := 0.0
	for k := 0; k < 4; k++ {
		for _, v := range a.Table().Get(k) {
			norm += v * v
		}
	}
	if norm == 0 {
		t.Fatal("δ table never updated")
	}
}

func TestRFedAvgPlusLearns(t *testing.T) {
	f := tinyFederation(t, 4, 0.0)
	a := NewRFedAvgPlus(1e-3)
	h := fl.Run(f, a, 8)
	if h.FinalAccuracy(2) < 0.5 {
		t.Fatalf("rFedAvg+ accuracy %v", h.FinalAccuracy(2))
	}
}

// TestCommunicationScaling pins the paper's complexity claim: rFedAvg's
// download volume grows with N·d per client (O(dN²) total) while
// rFedAvg+'s per-client download is independent of N (O(dN) total) —
// Tab. III.
func TestCommunicationScaling(t *testing.T) {
	bytesFor := func(clients int) (rAvg, rPlus int64) {
		f := tinyFederation(t, clients, 1.0)
		a1 := NewRFedAvg(1e-3)
		h1 := fl.Run(f, a1, 1)
		f2 := tinyFederation(t, clients, 1.0)
		a2 := NewRFedAvgPlus(1e-3)
		h2 := fl.Run(f2, a2, 1)
		return h1.Rounds[0].DownBytes, h2.Rounds[0].DownBytes
	}
	r4, p4 := bytesFor(4)
	r8, p8 := bytesFor(8)
	// rFedAvg: per-client down = P + N·d ⇒ total = N·(P + N·d); the table
	// term quadruples from N=4 to N=8.
	f4 := tinyFederation(t, 4, 1.0)
	p := int64(4) * fl.PayloadBytes(f4.NumParams())
	table4 := r4 - p
	f8 := tinyFederation(t, 8, 1.0)
	p8model := int64(8) * fl.PayloadBytes(f8.NumParams())
	table8 := r8 - p8model
	if table8 < 3*table4 {
		t.Fatalf("rFedAvg table volume must scale ~N²: N=4 → %d, N=8 → %d", table4, table8)
	}
	// rFedAvg+: down = N·(2P + d); doubling N must almost exactly double it.
	if p8 < 2*p4-100 || p8 > 2*p4+1000 {
		t.Fatalf("rFedAvg+ down bytes must scale ~N: N=4 → %d, N=8 → %d", p4, p8)
	}
}

// TestRegularizerReducesFeatureDiscrepancy is the mechanism test for the
// paper's whole premise: with λ > 0 the pairwise MMD between clients'
// feature maps after training must be smaller than with λ = 0 (FedAvg),
// under a non-IID partition.
func TestRegularizerReducesFeatureDiscrepancy(t *testing.T) {
	discrepancy := func(lambda float64) float64 {
		f := tinyFederation(t, 4, 0.0)
		a := NewRFedAvgPlus(lambda)
		fl.Run(f, a, 10)
		// Mean pairwise objective over clients on the final table.
		s := 0.0
		for k := 0; k < 4; k++ {
			s += a.Table().PairwiseObjective(k)
		}
		return s / 4
	}
	plain := discrepancy(0)
	reg := discrepancy(0.05)
	if reg >= plain {
		t.Fatalf("regularizer must reduce feature discrepancy: λ=0 → %v, λ=0.05 → %v", plain, reg)
	}
}

func TestRFedAvgDeterministic(t *testing.T) {
	run := func() float64 {
		f := tinyFederation(t, 4, 0.0)
		h := fl.Run(f, NewRFedAvgPlus(1e-3), 3)
		return h.Rounds[2].TrainLoss
	}
	if run() != run() {
		t.Fatal("rFedAvg+ runs must be deterministic")
	}
}

func TestNoiseDeltaHookIsApplied(t *testing.T) {
	f := tinyFederation(t, 3, 0.0)
	a := NewRFedAvgPlus(1e-3)
	var called atomic.Int64 // the hook runs on the worker pool
	a.NoiseDelta = func(delta []float64, rng *rand.Rand) {
		called.Add(1)
		for i := range delta {
			delta[i] = 42
		}
	}
	fl.Run(f, a, 1)
	if called.Load() != 3 {
		t.Fatalf("NoiseDelta called %d times, want 3", called.Load())
	}
	for _, v := range a.Table().Get(0) {
		if v != 42 {
			t.Fatal("noised delta not stored in table")
		}
	}
}

func TestRFedAvgPartialParticipationKeepsStaleRows(t *testing.T) {
	f := tinyFederation(t, 6, 0.0)
	f.Cfg.SampleRatio = 0.5
	a := NewRFedAvg(1e-3)
	a.Setup(f)
	sampled := f.SampleClients(0)
	if len(sampled) != 3 {
		t.Fatalf("sampled %d", len(sampled))
	}
	a.Round(0, sampled)
	inSample := map[int]bool{}
	for _, k := range sampled {
		inSample[k] = true
	}
	for k := 0; k < 6; k++ {
		norm := 0.0
		for _, v := range a.Table().Get(k) {
			norm += v * v
		}
		if inSample[k] && norm == 0 {
			t.Fatalf("sampled client %d row not refreshed", k)
		}
		if !inSample[k] && norm != 0 {
			t.Fatalf("unsampled client %d row changed", k)
		}
	}
}
