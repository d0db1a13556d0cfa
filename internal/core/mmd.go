// Package core implements the paper's contribution: the maximum mean
// discrepancy (MMD) distribution regularizer for federated learning on
// non-IID data (Eqs. 2–5) and the two communication-efficient algorithms
// that optimize it with delayed feature maps — rFedAvg (Algorithm 1) and
// rFedAvg+ (Algorithm 2).
//
// The feature mapping φ(·; w̃) is the model's feature extractor (everything
// up to the last FC layer); a client's local map is
// δ^k = (1/n_k)·Σ_j φ(x_{k,j}), and the empirical MMD between clients i and
// j is ‖δ^i - δ^j‖. The regularizer for client k is the mean squared MMD to
// all other clients, which both algorithms approximate with *delayed* maps
// so that no pairwise client communication is needed inside local training.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/health"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MMD returns the empirical maximum mean discrepancy ‖mean(a) - mean(b)‖
// between two feature matrices of shape (n, d) — Eq. (2) with the explicit
// feature map φ already applied.
func MMD(a, b *tensor.Tensor) float64 {
	return math.Sqrt(MMDSquaredMeans(tensor.ColMean(a), tensor.ColMean(b)))
}

// MMDSquaredMeans returns ‖δa - δb‖² for two feature means. The distance
// runs on the SIMD squared-distance kernel (tensor.SquaredDistanceFloats).
func MMDSquaredMeans(da, db []float64) float64 {
	if len(da) != len(db) {
		panic(fmt.Sprintf("core: MMD dims %d vs %d", len(da), len(db)))
	}
	return tensor.SquaredDistanceFloats(da, db)
}

// ComputeDeltaInto evaluates δ = (1/n)·Σ φ(x_j) over all of ds with the
// network's current parameters into dst (length FeatureDim), batching to
// bound memory (line 10 of Algorithm 1 / line 15 of Algorithm 2). δ is the
// same to the bit for every batch; ≤ 0 means 256. The index slice and the
// gather buffer are the arena's training batch (engine.BatchIdx/BatchRows),
// which the pass overwrites, so a client that trains and reports δ holds one
// such buffer and repeated calls allocate nothing after warm-up.
func ComputeDeltaInto(dst []float64, arena *nn.Arena, net *nn.Network, ds *data.Dataset, batch int) {
	if len(dst) != net.FeatureDim {
		panic(fmt.Sprintf("core: delta dst dim %d vs feature dim %d", len(dst), net.FeatureDim))
	}
	if batch <= 0 {
		batch = 256
	}
	n := ds.Len()
	clear(dst)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		idx := arena.Ints(engine.BatchIdx, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x := arena.Tensor(engine.BatchRows, hi-lo, ds.Features())
		ds.GatherInto(idx, x, nil)
		tensor.AccumColSums(dst, net.Features(x))
	}
	tensor.ScaleFloats(dst, 1/float64(n))
}

// RegLoss returns λ·‖δ_batch - target‖², the regularizer value for one
// batch's feature activations against a delayed target (the form r̃_k whose
// gradient equals the pairwise form r_k's — see Sec. IV-C).
func RegLoss(feat *tensor.Tensor, target []float64, lambda float64) float64 {
	return lambda * MMDSquaredMeans(tensor.ColMean(feat), target)
}

// RegFeatureGradInto writes the gradient of λ·‖δ_batch - target‖² with
// respect to the batch's feature activations into the caller-provided grad
// (same shape as feat, fully overwritten): every row receives
// (2λ/B)·(δ_batch - target). This is the extra feature-level gradient the
// local step of both rFedAvg and rFedAvg+ injects (line 9 of Algorithms
// 1–2). mean (length d) is scratch for the batch feature mean. It returns
// grad.
func RegFeatureGradInto(grad *tensor.Tensor, mean []float64, feat *tensor.Tensor, target []float64, lambda float64) *tensor.Tensor {
	b, d := feat.Dim(0), feat.Dim(1)
	if len(target) != d {
		panic(fmt.Sprintf("core: target dim %d vs feature dim %d", len(target), d))
	}
	if grad.Rank() != 2 || grad.Dim(0) != b || grad.Dim(1) != d {
		panic(fmt.Sprintf("core: reg grad shape %v vs feature shape %v", grad.Shape(), feat.Shape()))
	}
	tensor.ColMeanInto(mean, feat)
	// Reuse mean as the shared per-row gradient (2λ/B)·(δ_batch - target).
	// Axpy with a = −1 is an exact subtraction (fused or not), so this
	// matches the scalar form bit for bit.
	tensor.AxpyFloats(mean, -1, target)
	tensor.ScaleFloats(mean, 2*lambda/float64(b))
	for r := 0; r < b; r++ {
		copy(grad.Row(r), mean)
	}
	return grad
}

// regGrad is RegFeatureGradInto on arena's "reg.grad" and "reg.mean".
func regGrad(arena *nn.Arena, feat *tensor.Tensor, target []float64, lambda float64) *tensor.Tensor {
	return RegFeatureGradInto(
		arena.Tensor("reg.grad", feat.Dim(0), feat.Dim(1)),
		arena.Tensor("reg.mean", feat.Dim(1)).Data,
		feat, target, lambda)
}

// RegTerm is the λ·r_k term of the client objective F_k = f_k + λ·r_k as a
// local-step hook (engine.LocalSteps.FeatGrad) against a fixed target map,
// with its buffers in arena. len(target) must be the feature width.
func RegTerm(arena *nn.Arena, target []float64, lambda float64) func(feat *tensor.Tensor) *tensor.Tensor {
	return func(feat *tensor.Tensor) *tensor.Tensor { return regGrad(arena, feat, target, lambda) }
}

// DeltaTable is the server-side table of client maps
// δ = (δ¹, δ², …, δᴺ) that rFedAvg broadcasts (line 13 of Algorithm 1).
//
// The table tracks per-row staleness: Age(k) counts how many Tick calls
// (rounds) have passed since row k was last Set. A crashed or evicted
// client's row simply ages until the client rejoins and refreshes it —
// the δ-staleness fallback that lets fault-tolerant rounds keep training
// with the last known map. Setting MaxStale bounds how long such a stale
// row keeps influencing the regularization target.
//
// Row storage is lazy: a slot holds no float data until its client first
// Sets a map, so a table sized for 100k potential clients costs memory
// proportional to the clients that actually reported. Never-Set rows read
// as the zero vector everywhere (initialization δ_0), exactly as the
// eagerly-allocated table behaved.
type DeltaTable struct {
	N, Dim int
	// MaxStale, when > 0, excludes rows with Age > MaxStale from
	// MeanExcluding: a map that has not been refreshed for that many
	// rounds stops pulling other clients toward it. 0 keeps rows forever
	// (the paper's behavior under full participation).
	MaxStale int
	// AgeTrack holds the rows' ages and the Tick count (the age of never-Set
	// rows); the table wraps SetAge and Tick to keep its streaming aggregate
	// in step, and Set, not the promoted Reset, refreshes a row.
	AgeTrack
	rows [][]float64 // nil until first Set; nil reads as the zero row
	occ  int         // rows with allocated (Set at least once) storage
	zero []float64

	// Streaming mode (SetStreaming): sum holds Σ_j δ^j over the non-stale
	// rows and fresh their count, maintained incrementally by Set/SetAge and
	// rebuilt exactly at every Tick, so MeanExcludingInto is O(Dim) instead
	// of O(N·Dim). Mutators are not safe for concurrent use (matching the
	// non-streaming table); MeanExcludingInto stays read-only in both modes.
	streaming bool
	sum       []float64
	fresh     int

	drift []float64 // Drift's δ̄^{-k} scratch
}

// NewDeltaTable creates an all-zero table for n clients with d-dimensional
// maps (the server's initialization of δ_0). Row storage is allocated on
// first Set.
func NewDeltaTable(n, d int) *DeltaTable {
	return &DeltaTable{N: n, Dim: d, AgeTrack: *NewAgeTrack(n), rows: make([][]float64, n),
		zero: make([]float64, d)}
}

// DefaultStreamN is the client count from which a server table streams.
// Below it the exact per-target pass is cheap and keeps bitwise-stable
// summation order.
const DefaultStreamN = 1024

// NewServerTable is the δ table an rFedAvg+ server keeps for n clients, in the
// simulator and the transport server alike: rows unrefreshed for more than
// maxStale rounds drop out of the targets (0 keeps them), and the table
// streams (SetStreaming) from DefaultStreamN clients on, making every δ̄^{-k}
// an O(d) read instead of an O(N·d) pass.
func NewServerTable(n, d, maxStale int) *DeltaTable {
	t := NewDeltaTable(n, d)
	t.MaxStale = maxStale
	if n >= DefaultStreamN {
		t.SetStreaming(true)
	}
	return t
}

// SetStreaming switches the table's incremental-aggregate mode on or off,
// rebuilding the running mean state on enable. Streaming changes the
// floating-point summation order of MeanExcluding (one shared running sum
// instead of a fresh per-target pass), so it is opt-in: large-N servers
// enable it, small-N runs keep the bitwise-stable exact path.
func (t *DeltaTable) SetStreaming(on bool) {
	t.streaming = on
	if on {
		t.rebuildStream()
	}
}

// Streaming reports whether the incremental-aggregate mode is on.
func (t *DeltaTable) Streaming() bool { return t.streaming }

// rebuildStream recomputes sum and fresh exactly from the rows — called on
// enable and at every Tick, which bounds the incremental path's FP drift to
// one round of Sets.
func (t *DeltaTable) rebuildStream() {
	if cap(t.sum) < t.Dim {
		t.sum = make([]float64, t.Dim)
	}
	t.sum = t.sum[:t.Dim]
	for i := range t.sum {
		t.sum[i] = 0
	}
	t.fresh = 0
	for k, row := range t.rows {
		if t.Stale(k) {
			continue
		}
		t.fresh++
		if row != nil {
			tensor.AddFloats(t.sum, row)
		}
	}
}

// Set replaces client k's map and resets its staleness age, allocating the
// row's storage on first use.
func (t *DeltaTable) Set(k int, delta []float64) {
	if len(delta) != t.Dim {
		panic(fmt.Sprintf("core: delta dim %d vs table dim %d", len(delta), t.Dim))
	}
	if t.streaming {
		// Retire the row's previous contribution (zero for a nil row), then
		// account the fresh one; Tick's exact rebuild bounds the drift.
		if !t.Stale(k) {
			if t.rows[k] != nil {
				tensor.AxpyFloats(t.sum, -1, t.rows[k])
			}
			t.fresh--
		}
		defer func() {
			tensor.AddFloats(t.sum, t.rows[k])
			t.fresh++
		}()
	}
	if t.rows[k] == nil {
		t.rows[k] = make([]float64, t.Dim)
		t.occ++
	}
	copy(t.rows[k], delta)
	t.AgeTrack.Reset(k)
}

// Accept is a server's gate on a client-reported map: it must have the
// table's width and no NaN/Inf, which would poison every other client's
// target. An accepted map is Set; a rejected one leaves row k as it was, and
// the error is the reason the sender is dropped for.
func (t *DeltaTable) Accept(k int, delta []float64) error {
	if len(delta) != t.Dim {
		return fmt.Errorf("sent δ of %d dims, want %d", len(delta), t.Dim)
	}
	if !engine.Finite(delta) {
		return errors.New("non-finite δ map")
	}
	t.Set(k, delta)
	return nil
}

// Get returns client k's map (read-only view). Never-Set rows return a
// shared zero vector; callers must not write through the result.
func (t *DeltaTable) Get(k int) []float64 {
	if r := t.rows[k]; r != nil {
		return r
	}
	return t.zero
}

// row is Get for internal kernels (nil-safe read of slot k).
func (t *DeltaTable) row(k int) []float64 {
	if r := t.rows[k]; r != nil {
		return r
	}
	return t.zero
}

// OccupiedCount returns how many rows were ever Set — the quantity the
// table's memory footprint and a sparse checkpoint's size scale with.
func (t *DeltaTable) OccupiedCount() int { return t.occ }

// ForEachRow calls fn with every occupied row, in slot order. Never-Set
// slots are skipped; fn must treat row as read-only.
func (t *DeltaTable) ForEachRow(fn func(k int, row []float64)) {
	for k, row := range t.rows {
		if row != nil {
			fn(k, row)
		}
	}
}

// SetAge restores row k's staleness age (checkpoint restore). In streaming
// mode the running aggregate is adjusted when the new age flips the row
// across the MaxStale bound.
func (t *DeltaTable) SetAge(k, age int) {
	if t.streaming {
		was := t.Stale(k)
		now := t.MaxStale > 0 && age > t.MaxStale
		if was != now {
			if now { // fresh → stale: retire the row's contribution
				if t.rows[k] != nil {
					tensor.AxpyFloats(t.sum, -1, t.rows[k])
				}
				t.fresh--
			} else { // stale → fresh: re-admit it
				if t.rows[k] != nil {
					tensor.AddFloats(t.sum, t.rows[k])
				}
				t.fresh++
			}
		}
	}
	t.AgeTrack.SetAge(k, age)
}

// Tick advances every row's age by one round. Call once per completed
// round, after the fresh maps were Set (Set zeroes the age, so freshly
// refreshed rows end the round at age 1, missing rows keep growing). In
// streaming mode the running aggregate is rebuilt exactly here — aging can
// push rows past MaxStale, and the periodic exact pass bounds the
// incremental updates' floating-point drift.
func (t *DeltaTable) Tick() {
	t.AgeTrack.Tick()
	if t.streaming {
		t.rebuildStream()
	}
}

// Stale reports whether row k is excluded from regularization targets
// because it outlived the staleness bound.
func (t *DeltaTable) Stale(k int) bool {
	return t.MaxStale > 0 && t.ages[k] > t.MaxStale
}

// MeanExcluding returns (1/(N-1))·Σ_{j≠k} δ^j, the delayed target for
// client k. With the pairwise regularizer r_k = (1/(N-1))·Σ_j ‖δ^k - δ^j‖²,
// the gradient with respect to δ^k is 2·(δ^k - MeanExcluding(k)), so both
// rFedAvg (which materializes the whole table) and rFedAvg+ (which only
// ever ships this average — its r̃_k) share this target.
func (t *DeltaTable) MeanExcluding(k int) []float64 {
	return t.MeanExcludingInto(make([]float64, t.Dim), k)
}

// MeanExcludingInto is MeanExcluding writing into dst (length Dim) and
// returning it, so per-step callers can reuse one target buffer. Rows past
// the MaxStale bound are treated as missing: they contribute neither to
// the sum nor to the denominator, so long-evicted clients stop steering
// the survivors while their slot (and last map) is retained for rejoin.
// Never-Set rows count as (zero-valued) contributors, matching the
// all-zero initialization δ_0.
//
// In streaming mode the answer comes from the maintained running sum —
// (Σ − δ^k)/(m−1) in O(Dim) — instead of an O(N·Dim) pass. Both paths are
// read-only, so concurrent broadcasts may share the table.
func (t *DeltaTable) MeanExcludingInto(dst []float64, k int) []float64 {
	if len(dst) != t.Dim {
		panic(fmt.Sprintf("core: mean dst dim %d vs table dim %d", len(dst), t.Dim))
	}
	if t.N < 2 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	if t.streaming {
		m := t.fresh
		copy(dst, t.sum)
		if !t.Stale(k) {
			m--
			if t.rows[k] != nil {
				tensor.AxpyFloats(dst, -1, t.rows[k])
			}
		}
		if m <= 0 {
			for i := range dst {
				dst[i] = 0
			}
			return dst
		}
		tensor.ScaleFloats(dst, 1/float64(m))
		return dst
	}
	for i := range dst {
		dst[i] = 0
	}
	contributors := 0
	for j, row := range t.rows {
		if j == k || t.Stale(j) {
			continue
		}
		contributors++
		if row != nil {
			tensor.AddFloats(dst, row)
		}
	}
	if contributors == 0 {
		return dst
	}
	tensor.ScaleFloats(dst, 1/float64(contributors))
	return dst
}

// PairwiseObjective returns (1/(N-1))·Σ_{j≠k} ‖δ^k - δ^j‖², the exact
// regularizer value r_k of Eq. (5) evaluated on the table.
func (t *DeltaTable) PairwiseObjective(k int) float64 {
	if t.N < 2 {
		return 0
	}
	s := 0.0
	rk := t.row(k)
	for j := range t.rows {
		if j == k {
			continue
		}
		s += MMDSquaredMeans(rk, t.row(j))
	}
	return s / float64(t.N-1)
}

// TightObjective returns r̃_k = ‖δ^k - MeanExcluding(k)‖², the rFedAvg+
// form; by convexity it lower-bounds PairwiseObjective and has the same
// gradient with respect to δ^k.
func (t *DeltaTable) TightObjective(k int) float64 {
	return MMDSquaredMeans(t.row(k), t.MeanExcluding(k))
}

// Drift returns √r̃_k = ‖δ^k - δ̄^{-k}‖, the health monitor's per-client
// MMD drift signal. The target is computed into table-owned scratch, so the
// read allocates nothing after the first; like the mutators it is not safe
// for concurrent use.
func (t *DeltaTable) Drift(k int) float64 {
	if len(t.drift) != t.Dim {
		t.drift = make([]float64, t.Dim)
	}
	return math.Sqrt(MMDSquaredMeans(t.row(k), t.MeanExcludingInto(t.drift, k)))
}

// ObserveDrift gives the health monitor the Drift of every row Set since the
// last Tick — age 0 and stored; before the first Tick never-Set rows are age 0
// too — so after a δ synchronisation, the maps it refreshed. A nil monitor
// observes nothing.
func (t *DeltaTable) ObserveDrift(h *health.Monitor) {
	if h == nil {
		return
	}
	for k, age := range t.ages {
		if age == 0 && t.rows[k] != nil {
			h.ObserveDrift(k, t.Drift(k))
		}
	}
}

// pairwiseParMin is the minimum N·N·Dim volume before PairwiseMMDInto fans
// the row loop out to the tensor worker pool; below it the dispatch costs
// more than the distances.
const pairwiseParMin = 1 << 16

// PairwiseMMDInto fills dst (row-major N×N, regrown only if too small) with
// the empirical MMD matrix of the current table: dst[i·N+j] = ‖δ^i - δ^j‖,
// the quantity the regularizer of Eq. (5) drives toward zero. The matrix is
// symmetric with a zero diagonal; both triangles are filled so consumers
// can index either way. Staleness is deliberately ignored — the ledger
// records the distances of the maps as stored, ages and all.
//
// Each distance runs on the SIMD squared-distance kernel, and for large
// tables the upper-triangle rows are computed in parallel on the kernel
// worker pool: row i writes only dst[i·N+j] and its mirror dst[j·N+i] for
// j > i, so every element has exactly one writer (the smaller index) and
// rows are claimed dynamically to balance the triangle's uneven row costs.
func (t *DeltaTable) PairwiseMMDInto(dst []float64) []float64 {
	n := t.N
	if cap(dst) < n*n {
		dst = make([]float64, n*n)
	}
	dst = dst[:n*n]
	if n*n*t.Dim < pairwiseParMin || tensor.KernelParallelism() <= 1 {
		// Closure-free serial path: the parallel branch's func literal
		// escapes, and building it here would cost the serial path its
		// zero-allocation steady state.
		for i := 0; i < n; i++ {
			t.pairwiseRow(dst, i)
		}
		return dst
	}
	tensor.ParallelFor(n, func(i int) { t.pairwiseRow(dst, i) })
	return dst
}

func (t *DeltaTable) pairwiseRow(dst []float64, i int) {
	n := t.N
	ri := t.row(i)
	dst[i*n+i] = 0
	for j := i + 1; j < n; j++ {
		d := math.Sqrt(MMDSquaredMeans(ri, t.row(j)))
		dst[i*n+j], dst[j*n+i] = d, d
	}
}

// SampleRows returns k evenly-spaced row indices (always including 0 and
// N−1 when k ≥ 2) — the deterministic sub-sample SampledMMDInto uses when
// the full N×N matrix would be too large to ledger.
func (t *DeltaTable) SampleRows(k int) []int {
	if k > t.N {
		k = t.N
	}
	if k <= 0 {
		return nil
	}
	ids := make([]int, k)
	if k == 1 {
		return ids
	}
	step := float64(t.N-1) / float64(k-1)
	for i := range ids {
		ids[i] = int(float64(i)*step + 0.5)
	}
	return ids
}

// SampledMMDInto fills dst (row-major K×K for K = len(ids), regrown only if
// too small) with the pairwise MMD sub-matrix over the given row indices:
// dst[a·K+b] = ‖δ^{ids[a]} - δ^{ids[b]}‖. It is the O(K²·d) stand-in for
// PairwiseMMDInto when N is too large to materialize (or ledger) the full
// N×N matrix. Like PairwiseMMDInto it ignores staleness and reads rows as
// stored.
func (t *DeltaTable) SampledMMDInto(dst []float64, ids []int) []float64 {
	k := len(ids)
	if cap(dst) < k*k {
		dst = make([]float64, k*k)
	}
	dst = dst[:k*k]
	for a := 0; a < k; a++ {
		ra := t.row(ids[a])
		dst[a*k+a] = 0
		for b := a + 1; b < k; b++ {
			d := math.Sqrt(MMDSquaredMeans(ra, t.row(ids[b])))
			dst[a*k+b], dst[b*k+a] = d, d
		}
	}
	return dst
}
