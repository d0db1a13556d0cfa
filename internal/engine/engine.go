// Package engine is the arithmetic of one federated round, written once for
// the two drivers that run it, the internal/fl simulator and the
// internal/transport server. The server's half: draw the cohort, validate
// what came back, weigh it, aggregate — the paper's server step, Alg. 2 line
// 12 / Eq. (1), w ← Σ pₖwₖ renormalised over the cohort — feed the health
// monitor and fill the ledger record (Close, EndRound). The client's half
// (trainer.go): E mini-batch steps on F_k = f_k + λ·r_k, Algs. 1–2 lines 6–9.
// It sits below the drivers and internal/core: it knows nothing of
// connections, worker pools or algorithms.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Update is one client's trained model as the server step sees it.
type Update struct {
	Client  int
	Samples float64 // the client's shard size nₖ, its aggregation weight before renormalisation
	Age     int     // rounds since the round it trained for; read only for late updates
	Loss    float64 // mean local training loss
	Params  []float64
}

// Sample draws a round's cohort: ⌈sr·n⌉ distinct ones of the n eligible
// clients, uniformly, in draw order; sr outside (0,1) means all of them, in
// index order. The cohort is clamped to at least max(1, minK) members (bounded
// by n): tiny sample ratios — ⌈sr·n⌉ rounding below the quorum, or a float
// product flushing to 0 — otherwise produce rounds that can never reach quorum
// and stall a retry loop. A cohort that takes everyone draws nothing from rng.
func Sample(rng *rand.Rand, eligible []bool, sr float64, minK int) []int {
	idx := make([]int, 0, len(eligible))
	for i, e := range eligible {
		if e {
			idx = append(idx, i)
		}
	}
	if sr <= 0 || sr >= 1 {
		return idx
	}
	k := max(int(math.Ceil(sr*float64(len(idx)))), minK, 1)
	if k >= len(idx) {
		return idx
	}
	cohort := rng.Perm(len(idx))[:k]
	for j, p := range cohort {
		cohort[j] = idx[p]
	}
	return cohort
}

// Finite reports whether every element is finite. x−x is 0 for a finite x and
// NaN for ±Inf or NaN, and NaN is sticky under +, so the pass carries no
// per-element branch; four sums keep the adds from waiting on each other.
func Finite(v []float64) bool {
	var a0, a1, a2, a3 float64
	for ; len(v) >= 4; v = v[4:] {
		a0 += v[0] - v[0]
		a1 += v[1] - v[1]
		a2 += v[2] - v[2]
		a3 += v[3] - v[3]
	}
	for _, x := range v {
		a0 += x - x
	}
	return a0+a1+a2+a3 == 0
}

// Validate is the gate an update passes before it may reach an aggregate: it
// must have the model's n parameters, and a single NaN/Inf in them or in the
// loss would poison the global model silently. The error is the reason the
// sender is dropped for.
func Validate(u Update, n int) error {
	if len(u.Params) != n {
		return fmt.Errorf("sent %d params, want %d", len(u.Params), n)
	}
	if !Finite(u.Params) || u.Loss-u.Loss != 0 {
		return errors.New("non-finite update (NaN/Inf in params or loss)")
	}
	return nil
}

// StalenessWeight is the discount w(age) = 1/(1+age)^λ applied to an update
// folded into a later round than the one it trained for (FedBuff-style
// buffered aggregation). Age 0 and λ ≤ 0 weigh 1.
func StalenessWeight(age int, lambda float64) float64 {
	if age <= 0 || lambda <= 0 {
		return 1
	}
	return 1 / math.Pow(1+float64(age), lambda)
}

// aggChunk is how many coordinates one task of Aggregate's parallel loop sums.
// Every coordinate is summed over the same updates in the same order whatever
// chunk holds it, so the value moves speed only, never a bit.
const aggChunk = 4096

// Aggregate writes the weighted mean of the updates into dst and returns the
// equally weighted mean loss. A fresh update weighs Samples/Σ, a late one
// Samples·StalenessWeight(Age, λ)/Σ, with Σ the sum of those numerators: the
// weights renormalise to 1 over whoever actually delivered. ok is false, and
// dst untouched, when Σ ≤ 0 — 0/0 would NaN the whole model.
//
// "Late" is the caller's word, not Age > 0: a retried attempt folds an update
// parked by the failed attempt of the same round, at age 0. Σ, the loss and
// every coordinate accumulate fresh updates then late ones, in slice order.
// The coordinates are cut into fixed chunks summed in parallel; since no sum
// crosses a chunk, the result is the serial loop's to the bit on every run,
// machine and cohort size.
func Aggregate(dst []float64, fresh, late []Update, lambda float64) (loss float64, ok bool) {
	wsum := 0.0
	for i := range fresh {
		wsum += fresh[i].Samples
	}
	for i := range late {
		wsum += late[i].Samples * StalenessWeight(late[i].Age, lambda)
	}
	if !(wsum > 0) {
		return math.NaN(), false
	}
	for i := range fresh {
		loss += fresh[i].Samples / wsum * fresh[i].Loss
	}
	for i := range late {
		loss += late[i].Samples * StalenessWeight(late[i].Age, lambda) / wsum * late[i].Loss
	}
	n := len(dst)
	if n <= aggChunk {
		sumChunk(dst, 0, n, fresh, late, lambda, wsum)
		return loss, true
	}
	tensor.ParallelFor((n+aggChunk-1)/aggChunk, func(c int) {
		lo := c * aggChunk
		sumChunk(dst, lo, min(lo+aggChunk, n), fresh, late, lambda, wsum)
	})
	return loss, true
}

// sumChunk is Aggregate's loop over coordinates [lo, hi): dst[lo:hi] ←
// Σ wᵢ·Params[lo:hi], fresh updates then late ones.
func sumChunk(dst []float64, lo, hi int, fresh, late []Update, lambda, wsum float64) {
	d := dst[lo:hi]
	clear(d)
	for i := range fresh {
		tensor.AxpyFloats(d, fresh[i].Samples/wsum, fresh[i].Params[lo:hi])
	}
	for i := range late {
		tensor.AxpyFloats(d, late[i].Samples*StalenessWeight(late[i].Age, lambda)/wsum, late[i].Params[lo:hi])
	}
}

// Close is what a round does with its validated updates once they are in
// hand, against global, the model they trained from. It feeds the health
// monitor h — one direction-sum pass, one observation per fresh update, late
// ones credited with their age — then aggregates into dst (Aggregate). When
// the aggregate succeeds and rec is non-nil it fills the ledger's client block:
// id, loss and update norm ‖wₖ − w‖ per fresh update in detail mode (above it
// the arrays would be O(N) per line, so min/mean/max instead), the cohort size
// and the folded clients with their ages. A nil monitor observes nothing.
func Close(h *health.Monitor, rec *telemetry.RoundRecord, detail bool, round int, global, dst []float64, fresh, late []Update, lambda float64) (loss float64, ok bool) {
	if h != nil {
		h.BeginRound(round)
		for i := range fresh {
			h.AccumDirection(fresh[i].Params, global)
		}
		for i := range fresh {
			h.ObserveUpdate(fresh[i].Client, fresh[i].Loss, fresh[i].Params, global)
		}
		for i := range late {
			h.ObserveFold(late[i].Client, late[i].Age)
		}
	}
	loss, ok = Aggregate(dst, fresh, late, lambda)
	if !ok || rec == nil {
		return loss, ok
	}
	rec.Cohort = len(fresh) + len(late)
	for i := range fresh {
		u := &fresh[i]
		norm := math.Sqrt(tensor.SquaredDistanceFloats(u.Params, global))
		if detail {
			rec.ClientID = append(rec.ClientID, u.Client)
			rec.ClientLoss = append(rec.ClientLoss, u.Loss)
			rec.ClientNorm = append(rec.ClientNorm, norm)
		} else {
			rec.LossStats.Add(u.Loss)
			rec.NormStats.Add(norm)
		}
	}
	for i := range late {
		rec.LateID = append(rec.LateID, late[i].Client)
		rec.LateAge = append(rec.LateAge, late[i].Age)
	}
	return loss, ok
}

// EndRound closes the health round — robust statistics, scores, alerts,
// verdict — and, with rec non-nil, ledgers it: verdict, unhealthy count, and
// per-client scores aligned with rec.ClientID in detail mode or a min/mean/max
// triple over the cohort above it. A nil monitor does nothing.
func EndRound(h *health.Monitor, rec *telemetry.RoundRecord, detail bool, loss float64) {
	if h == nil {
		return
	}
	h.EndRound(loss)
	if rec == nil {
		return
	}
	rec.Verdict = h.LastVerdict()
	rec.Unhealthy = h.UnhealthyCount()
	if detail {
		for _, id := range rec.ClientID {
			rec.Health = append(rec.Health, h.Score(id))
		}
		return
	}
	h.CohortScores(func(_ int, score float64) { rec.HealthStats.Add(score) })
}

// Held is the one-model-per-version rule: entry k names the round whose
// assignment to client k may omit the model, because the previous round's
// second synchronisation sent k exactly that model. The zero entry holds
// nothing. Callers start a hold only in a round that sampled nobody out: under
// cohort sampling the overlap of consecutive cohorts is a draw of the seed, and
// eliding it would make bytes per round differ from seed to seed.
type Held []int

// Assign reports whether round's assignment to k may omit the model. Any
// assign, elided or not, ends the hold, so a retried attempt ships the model
// in full.
func (h Held) Assign(k, round int) bool {
	elide := h[k] == round+1
	h[k] = 0
	return elide
}

// Hold records that k was just sent the model round will start from.
func (h Held) Hold(k, round int) { h[k] = round + 1 }

// Drop ends k's hold: it was evicted, or a rejoiner took its place.
func (h Held) Drop(k int) { h[k] = 0 }

// Detail reports whether a session of n clients records per-client ledger
// detail (loss/norm/age/score arrays and the N×N MMD block) or, above
// telemetry.DefaultLedgerDetailN clients, summary statistics.
func Detail(n int) bool { return n <= telemetry.DefaultLedgerDetailN }

// MMDTable is what the ledger reads of a δ table; *core.DeltaTable is one.
type MMDTable interface {
	PairwiseMMDInto(dst []float64) []float64
	SampleRows(k int) []int
	SampledMMDInto(dst []float64, ids []int) []float64
	Age(k int) int
	Stale(k int) bool
}

// LedgerMMD records the pairwise MMD block of an n-row δ table: the full N×N
// matrix in detail mode; above it that would be O(N²) floats per line, so a
// deterministic K×K sub-matrix with its row ids instead.
func LedgerMMD(rec *telemetry.RoundRecord, detail bool, t MMDTable, n int) {
	if detail {
		rec.MMD = t.PairwiseMMDInto(rec.MMD)
		rec.MMDDim = n
		return
	}
	rec.MMDSample = t.SampleRows(telemetry.LedgerMMDSampleK)
	rec.MMD = t.SampledMMDInto(rec.MMD, rec.MMDSample)
	rec.MMDDim = len(rec.MMDSample)
}

// LedgerAges records the row ages of an n-row δ table — every row's in detail
// mode, a min/mean/max triple above it — and how many rows are past its
// staleness bound.
func LedgerAges(rec *telemetry.RoundRecord, detail bool, t MMDTable, n int) {
	for k := 0; k < n; k++ {
		if detail {
			rec.DeltaAges = append(rec.DeltaAges, t.Age(k))
		} else {
			rec.AgeStats.Add(float64(t.Age(k)))
		}
		if t.Stale(k) {
			rec.StaleRows++
		}
	}
}
