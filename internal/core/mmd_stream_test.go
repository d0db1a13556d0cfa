package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/health"
	"repro/internal/telemetry"
)

// streamTablePair drives two tables — one exact, one streaming — through an
// identical randomized sequence of Set/SetAge/Tick mutations and returns
// them for comparison.
func streamTablePair(t *testing.T, n, d, rounds int, maxStale int) (*DeltaTable, *DeltaTable) {
	t.Helper()
	exact := NewDeltaTable(n, d)
	exact.MaxStale = maxStale
	stream := NewDeltaTable(n, d)
	stream.MaxStale = maxStale
	stream.SetStreaming(true)
	rng := rand.New(rand.NewSource(42))
	row := make([]float64, d)
	for r := 0; r < rounds; r++ {
		// A random subset of clients reports this round; some never do.
		for k := 0; k < n; k++ {
			if rng.Float64() < 0.4 {
				continue
			}
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			exact.Set(k, row)
			stream.Set(k, row)
		}
		if rng.Float64() < 0.2 {
			k, age := rng.Intn(n), rng.Intn(2*maxStale+1)
			exact.SetAge(k, age)
			stream.SetAge(k, age)
		}
		exact.Tick()
		stream.Tick()
	}
	return exact, stream
}

// TestStreamingMeanExcludingMatchesExact pins the streaming table's O(d)
// MeanExcluding against the exact O(N·d) pass across a mutation history
// with partial participation and staleness flips. Tick rebuilds the running
// sum exactly, so after a Tick the two paths differ only by the summation
// order of one shared pass — tolerance is a tight relative epsilon.
func TestStreamingMeanExcludingMatchesExact(t *testing.T) {
	const n, d = 37, 8
	exact, stream := streamTablePair(t, n, d, 12, 3)
	want := make([]float64, d)
	got := make([]float64, d)
	for k := 0; k < n; k++ {
		exact.MeanExcludingInto(want, k)
		stream.MeanExcludingInto(got, k)
		for i := range want {
			diff := math.Abs(want[i] - got[i])
			scale := math.Max(1, math.Abs(want[i]))
			if diff > 1e-9*scale {
				t.Fatalf("client %d dim %d: exact %g streaming %g (diff %g)", k, i, want[i], got[i], diff)
			}
		}
	}
}

// TestStreamingMidRoundSetMatchesExact exercises the incremental update
// path between Ticks: Sets after the last rebuild must be reflected in the
// running sum without waiting for the next exact rebuild.
func TestStreamingMidRoundSetMatchesExact(t *testing.T) {
	const n, d = 16, 4
	exact, stream := streamTablePair(t, n, d, 5, 2)
	rng := rand.New(rand.NewSource(7))
	row := make([]float64, d)
	// Mid-round mutations with no trailing Tick.
	for _, k := range []int{3, 9, 3, 15} {
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		exact.Set(k, row)
		stream.Set(k, row)
	}
	exact.SetAge(5, 99) // force a fresh→stale flip on the incremental path
	stream.SetAge(5, 99)
	want := make([]float64, d)
	got := make([]float64, d)
	for k := 0; k < n; k++ {
		exact.MeanExcludingInto(want, k)
		stream.MeanExcludingInto(got, k)
		for i := range want {
			if diff := math.Abs(want[i] - got[i]); diff > 1e-9*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("client %d dim %d: exact %g streaming %g", k, i, want[i], got[i])
			}
		}
	}
}

// TestDeltaTableLazyRows pins the lazy-allocation contract: a fresh table
// holds no row storage, never-Set rows read as zeros everywhere, and
// occupancy counts only rows that were actually Set.
func TestDeltaTableLazyRows(t *testing.T) {
	tb := NewDeltaTable(1000, 16)
	if got := tb.OccupiedCount(); got != 0 {
		t.Fatalf("fresh table OccupiedCount = %d, want 0", got)
	}
	for _, v := range tb.Get(123) {
		if v != 0 {
			t.Fatalf("never-Set row reads nonzero: %v", tb.Get(123))
		}
	}
	row := make([]float64, 16)
	row[0] = 3.5
	tb.Set(7, row)
	tb.Set(7, row) // re-Set must not double-count occupancy
	tb.Set(900, row)
	if got := tb.OccupiedCount(); got != 2 {
		t.Fatalf("OccupiedCount = %d, want 2", got)
	}
	seen := 0
	tb.ForEachRow(func(k int, r []float64) {
		seen++
		if k != 7 && k != 900 {
			t.Fatalf("ForEachRow visited never-Set slot %d", k)
		}
	})
	if seen != 2 {
		t.Fatalf("ForEachRow visited %d rows, want 2", seen)
	}
	// MeanExcluding still counts never-Set rows as zero-valued contributors
	// (the all-zero initialization δ_0), identical to the eager table.
	m := tb.MeanExcluding(0)
	want := 3.5 * 2 / float64(1000-1)
	if math.Abs(m[0]-want) > 1e-12 {
		t.Fatalf("MeanExcluding(0)[0] = %g, want %g", m[0], want)
	}
}

// NewServerTable is the one streaming threshold both drivers use: a table
// streams from DefaultStreamN clients on; MaxStale is passed through.
func TestNewServerTableStreamN(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{
		{DefaultStreamN - 1, false},
		{DefaultStreamN, true},
	} {
		tb := NewServerTable(c.n, 2, 3)
		if tb.Streaming() != c.want || tb.MaxStale != 3 || tb.N != c.n {
			t.Errorf("NewServerTable(%d, 2, 3): streaming %v, MaxStale %d, N %d; want streaming %v",
				c.n, tb.Streaming(), tb.MaxStale, tb.N, c.want)
		}
	}
}

// Accept is the server's δ gate: a wrong width or a NaN/Inf map is refused
// with the server's eviction reason and leaves the row as it was.
func TestDeltaTableAccept(t *testing.T) {
	tb := NewDeltaTable(3, 2)
	if err := tb.Accept(1, []float64{1, 2}); err != nil {
		t.Fatalf("finite map refused: %v", err)
	}
	for _, c := range []struct {
		delta []float64
		want  string
	}{
		{[]float64{1}, "sent δ of 1 dims, want 2"},
		{[]float64{math.NaN(), 0}, "non-finite δ map"},
		{[]float64{0, math.Inf(-1)}, "non-finite δ map"},
	} {
		if err := tb.Accept(1, c.delta); err == nil || err.Error() != c.want {
			t.Errorf("Accept(%v) = %v, want %q", c.delta, err, c.want)
		}
		if r := tb.Get(1); r[0] != 1 || r[1] != 2 {
			t.Fatalf("refused map %v changed the row to %v", c.delta, r)
		}
	}
}

// ObserveDrift reads the rows Set since the last Tick and nothing else — not
// the never-Set rows, which are age 0 too before the first Tick.
func TestDeltaTableObserveDrift(t *testing.T) {
	tb := NewDeltaTable(4, 2)
	h := health.New(health.Config{Registry: telemetry.NewRegistry()})
	drifted := func() (ids []int) {
		for _, c := range h.Snapshot(0).Clients {
			if !math.IsNaN(float64(c.Drift)) {
				ids = append(ids, c.ID)
			}
		}
		sort.Ints(ids)
		return ids
	}
	tb.Set(1, []float64{1, 0})
	tb.Set(2, []float64{0, 1})
	tb.ObserveDrift(h)
	if got := drifted(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("round 0 observed drift for %v, want [1 2]", got)
	}
	tb.Tick()
	tb.Set(3, []float64{1, 1})
	tb.ObserveDrift(h)
	if n := h.Snapshot(0).Observed; n != 3 {
		t.Fatalf("round 1: %d clients observed, want 3 (row 3 added, row 0 never Set)", n)
	}
	tb.ObserveDrift(nil) // a nil monitor observes nothing
}

// TestDeltaTableTicksCounter pins the Ticks round counter used by sparse
// checkpoints as the default age of never-Set rows.
func TestDeltaTableTicksCounter(t *testing.T) {
	tb := NewDeltaTable(4, 2)
	for i := 0; i < 5; i++ {
		tb.Tick()
	}
	if tb.Ticks() != 5 {
		t.Fatalf("Ticks = %d, want 5", tb.Ticks())
	}
	if tb.Age(2) != 5 {
		t.Fatalf("never-Set row age = %d, want 5 (= Ticks)", tb.Age(2))
	}
	tb.SetTicks(11)
	if tb.Ticks() != 11 {
		t.Fatalf("SetTicks not restored: %d", tb.Ticks())
	}
}

// TestSampledMMDMatchesFullSubMatrix checks that the sampled K×K block
// equals the corresponding entries of the full N×N matrix, and that
// SampleRows spans the index range deterministically.
func TestSampledMMDMatchesFullSubMatrix(t *testing.T) {
	const n, d = 24, 6
	tb := NewDeltaTable(n, d)
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, d)
	for k := 0; k < n; k += 2 { // half the slots stay never-Set (zero rows)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		tb.Set(k, row)
	}
	full := tb.PairwiseMMDInto(nil)
	ids := tb.SampleRows(5)
	if len(ids) != 5 || ids[0] != 0 || ids[len(ids)-1] != n-1 {
		t.Fatalf("SampleRows(5) = %v, want 5 ids spanning [0,%d]", ids, n-1)
	}
	sub := tb.SampledMMDInto(nil, ids)
	for a, i := range ids {
		for b, j := range ids {
			if got, want := sub[a*len(ids)+b], full[i*n+j]; got != want {
				t.Fatalf("sub[%d,%d]=%g != full[%d,%d]=%g", a, b, got, i, j, want)
			}
		}
	}
	if again := tb.SampleRows(5); len(again) != len(ids) || again[0] != ids[0] || again[2] != ids[2] {
		t.Fatalf("SampleRows not deterministic: %v vs %v", again, ids)
	}
}
