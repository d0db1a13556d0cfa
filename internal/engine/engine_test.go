package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// mask marks ids in an n-slot mask and fails on a repeated or out-of-range id:
// a cohort is a set.
func mask(t *testing.T, n int, ids []int) []bool {
	t.Helper()
	m := make([]bool, n)
	for _, i := range ids {
		if i < 0 || i >= n || m[i] {
			t.Fatalf("cohort %v repeats or leaves [0,%d)", ids, n)
		}
		m[i] = true
	}
	return m
}

func count(m []bool) int {
	n := 0
	for _, c := range m {
		if c {
			n++
		}
	}
	return n
}

func TestStalenessWeight(t *testing.T) {
	cases := []struct {
		age    int
		lambda float64
		want   float64
	}{
		{0, 0.5, 1},
		{-3, 0.5, 1},
		{1, 0, 1},
		{2, -1, 1},
		{1, 1, 0.5},
		{3, 1, 0.25},
		{1, 0.5, 1 / math.Sqrt(2)},
	}
	for _, c := range cases {
		if got := StalenessWeight(c.age, c.lambda); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("StalenessWeight(%d, %g) = %v, want %v", c.age, c.lambda, got, c.want)
		}
	}
	// Monotone: older updates never weigh more.
	prev := StalenessWeight(0, 0.5)
	for age := 1; age < 10; age++ {
		w := StalenessWeight(age, 0.5)
		if w > prev {
			t.Fatalf("weight increased with age: w(%d)=%v > w(%d)=%v", age, w, age-1, prev)
		}
		prev = w
	}
}

// Regression for the cohort-size underflow: tiny sample ratios used to
// round ⌈sr·N⌉ below MinClients (or to 0 via float flush), producing
// rounds that could never reach quorum. The sampler must clamp to
// max(1, minK), bounded by the active population.
func TestCohortClampedToQuorum(t *testing.T) {
	active := make([]bool, 100000)
	for i := range active {
		active[i] = true
	}
	rng := rand.New(rand.NewSource(1))
	// sr·N rounds to 1, quorum needs 8 → clamp to 8.
	if got := count(mask(t, len(active), Sample(rng, active, 1e-5, 8))); got != 8 {
		t.Fatalf("cohort size = %d, want quorum clamp 8", got)
	}
	// No quorum floor: still at least one member.
	if got := count(mask(t, len(active), Sample(rng, active, 1e-12, 0))); got != 1 {
		t.Fatalf("cohort size = %d, want floor 1", got)
	}
	// Clamp cannot exceed the active population.
	small := []bool{true, false, true, true, false}
	in := mask(t, len(small), Sample(rng, small, 0.5, 10))
	if got := count(in); got != 3 {
		t.Fatalf("cohort size = %d, want all 3 active", got)
	}
	for i, a := range small {
		if in[i] != a {
			t.Fatalf("slot %d: sampled %v, active %v", i, in[i], a)
		}
	}
	// Unclamped region untouched: sr·N well above minK keeps ⌈sr·N⌉.
	if got := count(mask(t, len(active), Sample(rng, active, 0.001, 8))); got != 100 {
		t.Fatalf("cohort size = %d, want ⌈0.001·100000⌉ = 100", got)
	}
}

func TestSampleCohort(t *testing.T) {
	all := func(n int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	rng := rand.New(rand.NewSource(1))
	full := mask(t, 5, Sample(rng, all(5), 0, 1))
	for _, in := range full {
		if !in {
			t.Fatal("SR=0 must mean full participation")
		}
	}
	part := mask(t, 10, Sample(rng, all(10), 0.3, 1))
	if got := count(part); got != 3 {
		t.Fatalf("SR=0.3 cohort size %d, want 3", got)
	}
}

// Sample is the simulator's historical draw — rng.Perm(n)[:k] over everyone,
// in draw order — and a cohort that takes everyone leaves rng untouched.
func TestSampleIsPermPrefix(t *testing.T) {
	all := make([]bool, 40)
	for i := range all {
		all[i] = true
	}
	got := Sample(rand.New(rand.NewSource(5)), all, 0.2, 1)
	want := rand.New(rand.NewSource(5)).Perm(40)[:8]
	if len(got) != len(want) {
		t.Fatalf("cohort %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cohort %v, want %v", got, want)
		}
	}
	for _, sr := range []float64{0, 1, 0.99} {
		if c := Sample(nil, all, sr, 1); len(c) != 40 || c[0] != 0 || c[39] != 39 {
			t.Fatalf("sr %v: cohort %v, want everyone in index order", sr, c)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := Update{Loss: 0.5, Params: []float64{1, -2, 3}}
	if err := Validate(ok, 3); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	if err := Validate(ok, 4); err == nil {
		t.Fatal("short update accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := Validate(Update{Loss: bad, Params: ok.Params}, 3); err == nil {
			t.Fatalf("loss %v accepted", bad)
		}
		if err := Validate(Update{Params: []float64{1, bad, 3}}, 3); err == nil {
			t.Fatalf("parameter %v accepted", bad)
		}
	}
}

func TestHeld(t *testing.T) {
	h := make(Held, 3)
	if h.Assign(0, 0) {
		t.Fatal("a fresh entry holds round 0's model")
	}
	h.Hold(1, 5)
	if h.Assign(1, 4) {
		t.Fatal("hold for round 5 elided round 4's assign")
	}
	h.Hold(1, 5)
	if !h.Assign(1, 5) {
		t.Fatal("hold for round 5 did not elide its assign")
	}
	if h.Assign(1, 5) {
		t.Fatal("the hold survived an assign")
	}
	h.Hold(2, 7)
	h.Drop(2)
	if h.Assign(2, 7) {
		t.Fatal("the hold survived a drop")
	}
}

// --- the parent commit's aggregation, kept as the reference ---

// refUpdate is what the transport server's loops read of a delivered frame.
type refUpdate struct {
	Loss   float64
	Params []float64
}

// refFold is a parked update as the parent's server kept it.
type refFold struct {
	Client, Age int
	refUpdate
}

// refAggregate is the parent's attemptRound from the weight sum to the last
// fold, at any cohort size: slot-indexed updates (nil = evicted, failed or
// unsampled), one accumulator over the whole model, folds in slot order.
func refAggregate(updates []*refUpdate, samples []float64, folds []refFold, lambda float64, dim int) (next []float64, loss float64, ok bool) {
	wsum := 0.0
	for i, m := range updates {
		if m != nil {
			wsum += samples[i]
		}
	}
	for _, b := range folds {
		wsum += samples[b.Client] * StalenessWeight(b.Age, lambda)
	}
	if wsum <= 0 {
		return nil, 0, false
	}
	next = make([]float64, dim)
	for i, m := range updates {
		if m == nil {
			continue
		}
		wi := samples[i] / wsum
		tensor.AxpyFloats(next, wi, m.Params)
		loss += wi * m.Loss
	}
	for _, b := range folds {
		wi := samples[b.Client] * StalenessWeight(b.Age, lambda) / wsum
		tensor.AxpyFloats(next, wi, b.Params)
		loss += wi * b.Loss
	}
	return next, loss, true
}

// cohortCase is one random round in both shapes: the parent's slot-indexed
// arrays and the engine's update lists.
type cohortCase struct {
	updates []*refUpdate
	samples []float64
	folds   []refFold
	fresh   []Update
	late    []Update
}

// randomCohort draws a round over slots client slots: each delivers with
// probability deliver (the rest are the evicted, failed and unsampled ones),
// and each of the others is a parked fold with probability fold, one in three
// of them at age 0 — an update parked by a failed attempt of the same round.
func randomCohort(rng *rand.Rand, slots, dim int, deliver, fold float64) cohortCase {
	c := cohortCase{updates: make([]*refUpdate, slots), samples: make([]float64, slots)}
	vec := func() []float64 {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		return v
	}
	for i := 0; i < slots; i++ {
		c.samples[i] = float64(1 + rng.Intn(500))
		switch {
		case rng.Float64() < deliver:
			m := &refUpdate{Loss: rng.Float64() * 3, Params: vec()}
			c.updates[i] = m
			c.fresh = append(c.fresh, Update{Client: i, Samples: c.samples[i], Loss: m.Loss, Params: m.Params})
		case rng.Float64() < fold:
			f := refFold{Client: i, Age: rng.Intn(3), refUpdate: refUpdate{Loss: rng.Float64() * 3, Params: vec()}}
			c.folds = append(c.folds, f)
			c.late = append(c.late, Update{Client: i, Samples: c.samples[i], Age: f.Age, Loss: f.Loss, Params: f.Params})
		}
	}
	return c
}

// Aggregate is the parent server's serial arithmetic to the bit, at every
// cohort size and on both sides of a chunk boundary: with evicted slots, with
// folds, with an age-0 fold.
func TestAggregateMatchesParentServer(t *testing.T) {
	dims := []int{37, aggChunk - 1, aggChunk + 1, 2*aggChunk + 37}
	rng := rand.New(rand.NewSource(21))
	small, large, multi, zeroAge := 0, 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		dim := dims[trial/2%len(dims)]
		slots := 3 + rng.Intn(60) // mostly under 64 fresh updates …
		if trial%2 == 1 {
			slots = 70 + rng.Intn(200) // … and mostly over
		}
		lambda := []float64{0, 0.5, 1.3}[trial%3]
		c := randomCohort(rng, slots, dim, 0.4+0.6*rng.Float64(), 0.5)
		want, wantLoss, wantOK := refAggregate(c.updates, c.samples, c.folds, lambda, dim)
		got := make([]float64, dim)
		for j := range got {
			got[j] = math.NaN() // Aggregate owes nothing to dst's contents
		}
		loss, ok := Aggregate(got, c.fresh, c.late, lambda)
		if ok != wantOK {
			t.Fatalf("trial %d: ok %v, parent %v", trial, ok, wantOK)
		}
		if !ok {
			continue
		}
		if len(c.fresh) >= 64 {
			large++
		} else {
			small++
		}
		if dim > aggChunk {
			multi++
		}
		for _, u := range c.late {
			if u.Age == 0 {
				zeroAge++
			}
		}
		if loss != wantLoss {
			t.Fatalf("trial %d (%d fresh, %d late, dim %d): loss %v, parent %v", trial, len(c.fresh), len(c.late), dim, loss, wantLoss)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (%d fresh, %d late, dim %d): param %d = %v, parent %v", trial, len(c.fresh), len(c.late), dim, j, got[j], want[j])
			}
		}
	}
	if small < 10 || large < 10 || multi < 20 || zeroAge < 10 {
		t.Fatalf("coverage: %d small, %d large cohorts, %d multi-chunk models, %d age-0 folds", small, large, multi, zeroAge)
	}
}

// The invariants the round leans on, over random cohorts of under and over 64
// fresh updates: after any eviction/fold pattern the effective weights sum to
// 1, each is its update's share of Σ, and a second run repeats the first to
// the bit.
func TestAggregateInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		slots := 2 + rng.Intn(40)
		if trial%2 == 1 {
			slots = 80 + rng.Intn(150)
		}
		lambda := []float64{0, 0.5, 2}[trial%3]
		c := randomCohort(rng, slots, 1, 0.3+0.7*rng.Float64(), 0.6)
		// Update j reports the j-th basis vector, so dst[j] is its weight.
		all := append(append([]Update(nil), c.fresh...), c.late...)
		if len(all) == 0 {
			continue
		}
		for j := range all {
			all[j].Params = make([]float64, len(all))
			all[j].Params[j] = 1
		}
		fresh, late := all[:len(c.fresh)], all[len(c.fresh):]
		weights := make([]float64, len(all))
		loss, ok := Aggregate(weights, fresh, late, lambda)
		if !ok {
			t.Fatalf("trial %d: positive sample counts, ok false", trial)
		}
		sum, wantLoss, den := 0.0, 0.0, 0.0
		for j, w := range weights {
			if w <= 0 {
				t.Fatalf("trial %d: update %d weighs %v", trial, j, w)
			}
			sum += w
			n := all[j].Samples
			if j >= len(fresh) {
				n *= StalenessWeight(all[j].Age, lambda)
			}
			wantLoss += n * all[j].Loss
			den += n
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("trial %d (%d fresh, %d late): weights sum to %v", trial, len(fresh), len(late), sum)
		}
		if math.Abs(loss-wantLoss/den) > 1e-12*(1+wantLoss/den) {
			t.Fatalf("trial %d: loss %v, want %v", trial, loss, wantLoss/den)
		}
		// Serial order over the same updates: slice order, one accumulator.
		for j, u := range all {
			n := u.Samples
			if j >= len(fresh) {
				n *= StalenessWeight(u.Age, lambda)
			}
			if d := math.Abs(weights[j] - n/den); d > 1e-12 {
				t.Fatalf("trial %d: update %d weighs %v, serial %v", trial, j, weights[j], n/den)
			}
		}
		again := make([]float64, len(all))
		loss2, _ := Aggregate(again, fresh, late, lambda)
		if math.Float64bits(loss) != math.Float64bits(loss2) {
			t.Fatalf("trial %d: loss differs between runs: %v vs %v", trial, loss, loss2)
		}
		for j := range again {
			if math.Float64bits(again[j]) != math.Float64bits(weights[j]) {
				t.Fatalf("trial %d: weight %d differs between runs", trial, j)
			}
		}
	}
}

// With nothing to weigh, Aggregate says so and leaves dst alone: 0/0 would
// NaN the whole model.
func TestAggregateEmptyCohort(t *testing.T) {
	for name, c := range map[string]struct{ fresh, late []Update }{
		"nothing":        {},
		"zero samples":   {fresh: []Update{{Client: 0, Params: []float64{1, 2}}}},
		"only zero late": {late: []Update{{Client: 1, Age: 2, Params: []float64{3, 4}}}},
	} {
		dst := []float64{7, -7}
		loss, ok := Aggregate(dst, c.fresh, c.late, 0.5)
		if ok || !math.IsNaN(loss) {
			t.Errorf("%s: ok %v, loss %v; want false, NaN", name, ok, loss)
		}
		if dst[0] != 7 || dst[1] != -7 {
			t.Errorf("%s: dst overwritten: %v", name, dst)
		}
	}
}

// Aggregate allocates nothing on a model of one chunk, whatever the cohort,
// and on a larger model at most the closure that hands its chunks to the
// worker pool.
func TestAggregateSerialAllocatesNothing(t *testing.T) {
	for _, c := range []struct{ dim, cohort, allocs int }{
		{64, 63, 0}, {aggChunk, 70, 0}, {3*aggChunk + 1, 8, 1},
	} {
		fresh := randomCohort(rand.New(rand.NewSource(4)), c.cohort, c.dim, 1, 0).fresh
		late := []Update{{Client: 900, Samples: 10, Age: 2, Loss: 1, Params: make([]float64, c.dim)}}
		dst := make([]float64, c.dim)
		if avg := testing.AllocsPerRun(50, func() { Aggregate(dst, fresh, late, 0.5) }); avg > float64(c.allocs) {
			t.Errorf("dim %d, %d fresh: Aggregate allocates %.1f objects/op, want ≤ %d", c.dim, c.cohort, avg, c.allocs)
		}
	}
}

// Close's ledger block holds each fresh update's norm ‖wₖ − w‖ (SIMD
// squared-distance kernel) to a private scalar reference within reassociation
// tolerance, with id and loss aligned and the late folds listed with their
// ages. Without a record, or when the aggregate fails, it writes no block.
func TestCloseLedgerNormsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vec := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, dim := range []int{1, 7, 8, 33, 1000} {
		global := vec(dim)
		fresh := make([]Update, 4)
		for c := range fresh {
			fresh[c] = Update{Client: 10 + c, Samples: float64(c + 1), Loss: float64(c), Params: vec(dim)}
		}
		late := []Update{{Client: 3, Samples: 2, Age: 2, Loss: 9, Params: vec(dim)}}
		var rec telemetry.RoundRecord
		rec.Reset()
		if _, ok := Close(nil, &rec, true, 0, global, make([]float64, dim), fresh, late, 0.5); !ok {
			t.Fatalf("dim=%d: aggregate failed", dim)
		}
		if rec.Cohort != 5 || len(rec.ClientNorm) != 4 || len(rec.LateID) != 1 || rec.LateID[0] != 3 || rec.LateAge[0] != 2 {
			t.Fatalf("dim=%d: cohort %d, %d norms, late %v/%v", dim, rec.Cohort, len(rec.ClientNorm), rec.LateID, rec.LateAge)
		}
		for c, u := range fresh {
			s := 0.0
			for i, v := range u.Params {
				d := v - global[i]
				s += d * d
			}
			if rec.ClientID[c] != u.Client || rec.ClientLoss[c] != u.Loss {
				t.Fatalf("dim=%d entry %d: id %d loss %v, want %d %v", dim, c, rec.ClientID[c], rec.ClientLoss[c], u.Client, u.Loss)
			}
			if got, want := rec.ClientNorm[c], math.Sqrt(s); math.Abs(got-want) > 1e-12*float64(dim+1) {
				t.Fatalf("dim=%d client %d: norm %v vs scalar %v", dim, u.Client, got, want)
			}
		}
	}

	if _, ok := Close(nil, nil, true, 0, []float64{0}, []float64{0}, []Update{{Samples: 1, Params: []float64{1}}}, nil, 0); !ok {
		t.Fatal("nil record: aggregate failed")
	}
	var rec telemetry.RoundRecord
	rec.Reset()
	zero := []Update{{Client: 1, Params: []float64{1}}} // Σ nₖ = 0
	if _, ok := Close(nil, &rec, true, 0, []float64{0}, []float64{0}, zero, zero, 0); ok {
		t.Fatal("zero-weight cohort aggregated")
	}
	if rec.Cohort != 0 || len(rec.ClientID) != 0 || len(rec.ClientNorm) != 0 || len(rec.LateID) != 0 {
		t.Fatalf("failed aggregate wrote a client block: %+v", rec)
	}
}
