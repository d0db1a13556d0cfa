package fl

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// WeightedAverageStale and MeanLossStale were the simulator's own
// staleness-discounted reducers; the tests below were written against them and
// now reach the one server step through the conversion Federation.aggregate
// uses.
func aggregateStale(outs []ClientOut, ages []int, lambda float64) ([]float64, float64) {
	fresh, late := split(nil, nil, outs, ages)
	dst := make([]float64, len(outs[0].Params))
	loss, ok := engine.Aggregate(dst, fresh, late, lambda)
	if !ok {
		panic("aggregateStale with no reporting clients")
	}
	return dst, loss
}

func WeightedAverageStale(outs []ClientOut, ages []int, lambda float64) []float64 {
	avg, _ := aggregateStale(outs, ages, lambda)
	return avg
}

func MeanLossStale(outs []ClientOut, ages []int, lambda float64) float64 {
	_, loss := aggregateStale(outs, ages, lambda)
	return loss
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
		if got := engine.StalenessWeight(c.age, c.lambda); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("StalenessWeight(%d, %g) = %v, want %v", c.age, c.lambda, got, c.want)
		}
	}
	// Monotone: older updates never weigh more.
	prev := engine.StalenessWeight(0, 0.5)
	for age := 1; age < 10; age++ {
		w := engine.StalenessWeight(age, 0.5)
		if w > prev {
			t.Fatalf("weight increased with age: w(%d)=%v > w(%d)=%v", age, w, age-1, prev)
		}
		prev = w
	}
}

func newAsyncFederation(t *testing.T, clients int, cfg Config) *Federation {
	t.Helper()
	train := data.SynthMNIST(40*clients, 1)
	shards := make([]*data.Dataset, clients)
	per := train.Len() / clients
	for k := range shards {
		idx := make([]int, per)
		for j := range idx {
			idx[j] = k*per + j
		}
		shards[k] = train.Subset(idx)
	}
	cfg.Builder = nn.NewMLP(train.Features(), 8, 8, train.Classes)
	return NewFederation(cfg, shards, nil)
}

// fakeOuts builds one ClientOut per listed client with a recognizable
// constant parameter vector.
func fakeOuts(f *Federation, ids []int) []ClientOut {
	outs := make([]ClientOut, len(ids))
	for i, id := range ids {
		outs[i] = ClientOut{
			Client: f.Clients[id],
			Params: []float64{float64(id), float64(id) * 2},
			Loss:   float64(id) + 0.5,
		}
	}
	return outs
}

// With BufferK covering the cohort and nothing deferred, applyAsync is the
// identity: same outs, nil ages — and the stale-weighted reducers must then
// be bitwise-identical to their synchronous forms.
func TestApplyAsyncIdentityWhenNothingDeferred(t *testing.T) {
	f := newAsyncFederation(t, 4, Config{BufferK: 4, Seed: 9})
	outs := fakeOuts(f, []int{0, 1, 2, 3})
	agg, ages := f.applyAsync(0, outs)
	if ages != nil {
		t.Fatalf("BufferK=4 over a cohort of 4 deferred something: ages %v", ages)
	}
	if len(agg) != len(outs) {
		t.Fatalf("agg has %d entries, want %d", len(agg), len(outs))
	}

	sync := WeightedAverage(outs)
	stale := WeightedAverageStale(agg, ages, 0.7)
	for j := range sync {
		if math.Float64bits(sync[j]) != math.Float64bits(stale[j]) {
			t.Fatalf("nil-ages stale average diverges at %d: %v vs %v", j, stale[j], sync[j])
		}
	}
	n, want := 0.0, 0.0
	for _, o := range outs {
		n += float64(o.Client.Data.Len())
	}
	for _, o := range outs {
		want += float64(o.Client.Data.Len()) / n * o.Loss
	}
	if got := MeanLossStale(agg, ages, 0.7); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("nil-ages stale mean loss %v, synchronous Σ(nₖ/n)·ℓₖ = %v", got, want)
	}
}

// BufferK keeps the K lowest-latency clients and defers the rest; the
// deferred updates fold into the next round with their age.
func TestApplyAsyncDefersAndFolds(t *testing.T) {
	f := newAsyncFederation(t, 4, Config{BufferK: 2, Seed: 9, SlowFactor: []float64{1, 1, 20, 1}})

	agg0, ages0 := f.applyAsync(0, fakeOuts(f, []int{0, 1, 2, 3}))
	if len(agg0) != 2 {
		t.Fatalf("round 0 kept %d updates, want BufferK=2", len(agg0))
	}
	if ages0 != nil {
		for _, a := range ages0 {
			if a != 0 {
				t.Fatalf("round 0 ages %v, want all 0", ages0)
			}
		}
	}
	if got := f.AsyncDeferred(); got != 2 {
		t.Fatalf("deferred %d updates, want 2", got)
	}
	// Client 2's ×20 latency guarantees it was deferred.
	for _, o := range agg0 {
		if o.Client.ID == 2 {
			t.Fatal("slow client 2 made the round-0 buffer")
		}
	}

	// Deferred clients are busy: they drop out of later cohorts.
	busyFiltered := f.filterAsyncBusy([]int{0, 1, 2, 3})
	if len(busyFiltered) != 2 {
		t.Fatalf("busy filter kept %v, want the 2 non-deferred clients", busyFiltered)
	}

	// Round 1 over the remaining clients: the round-0 deferrals fold in at
	// age 1.
	agg1, ages1 := f.applyAsync(1, fakeOuts(f, busyFiltered))
	if f.AsyncDeferred() != 0 {
		t.Fatalf("folds did not drain: %d still deferred", f.AsyncDeferred())
	}
	if len(agg1) != 4 || len(ages1) != 4 {
		t.Fatalf("round 1 aggregated %d updates with %d ages, want 4 and 4", len(agg1), len(ages1))
	}
	folded := 0
	for i, o := range agg1 {
		if ages1[i] == 1 {
			folded++
			if contains(busyFiltered, o.Client.ID) {
				t.Fatalf("client %d is both fresh and folded", o.Client.ID)
			}
		}
	}
	if folded != 2 {
		t.Fatalf("round 1 folded %d aged updates, want 2", folded)
	}

	// The aged entries must be discounted: recompute the weighted average by
	// hand and compare.
	got := WeightedAverageStale(agg1, ages1, 1.0)
	var want []float64
	den := 0.0
	for i, o := range agg1 {
		w := float64(o.Client.Data.Len()) * engine.StalenessWeight(ages1[i], 1.0)
		if want == nil {
			want = make([]float64, len(o.Params))
		}
		for j := range o.Params {
			want[j] += w * o.Params[j]
		}
		den += w
	}
	for j := range want {
		want[j] /= den
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > 1e-12 {
			t.Fatalf("stale average[%d] = %v, want %v", j, got[j], want[j])
		}
	}
}

// The latency model is a pure function of (seed, round, client): the same
// configuration defers the same clients every time.
func TestApplyAsyncDeterministic(t *testing.T) {
	pick := func() []int {
		f := newAsyncFederation(t, 6, Config{BufferK: 3, Seed: 42})
		agg, _ := f.applyAsync(0, fakeOuts(f, []int{0, 1, 2, 3, 4, 5}))
		var ids []int
		for _, o := range agg {
			ids = append(ids, o.Client.ID)
		}
		return ids
	}
	a, b := pick(), pick()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("kept %d and %d updates, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two identical runs kept different clients: %v vs %v", a, b)
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// The health monitor is fed what the round aggregates, as on the server: an
// async round's parked stragglers are scored when they fold, not when they
// finish training, so round 0 scores three of the six clients.
func TestAsyncHealthFeedsAggregatedOnly(t *testing.T) {
	f := newAsyncFederation(t, 6, Config{BufferK: 3, Seed: 42, SlowFactor: []float64{1, 1, 1, 1, 6, 6}})
	f.Cfg.Health = health.New(health.Config{Registry: telemetry.NewRegistry()})
	a := NewFedAvg()
	a.Setup(f)
	res := a.Round(0, f.SampleClients(0))
	var scored []int
	f.Cfg.Health.CohortScores(func(id int, _ float64) { scored = append(scored, id) })
	if len(res.ClientLosses) != 3 || len(scored) != 3 {
		t.Fatalf("aggregated %d clients, health scored %v; want the 3 aggregated", len(res.ClientLosses), scored)
	}
	for _, id := range scored {
		if _, ok := res.ClientLosses[id]; !ok {
			t.Fatalf("health scored parked client %d (aggregated %v)", id, res.ClientLosses)
		}
	}
}
