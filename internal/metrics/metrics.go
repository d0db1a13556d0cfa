// Package metrics records what the paper's evaluation section reports:
// per-round training loss, test accuracy, wall-clock time, and communication
// bytes (Figs. 2–8, 10; Tab. III), plus per-client accuracy statistics for
// the fairness evaluation (Fig. 11).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RoundStats captures one communication round of a federated run.
type RoundStats struct {
	Round     int
	TrainLoss float64
	// TestAcc is the global-model test accuracy, or NaN when the round was
	// not evaluated.
	TestAcc   float64
	Seconds   float64
	UpBytes   int64 // client → server
	DownBytes int64 // server → client
}

// History is the full trace of a federated run.
type History struct {
	Algorithm string
	Rounds    []RoundStats
}

// Append records one round.
func (h *History) Append(s RoundStats) { h.Rounds = append(h.Rounds, s) }

// FinalAccuracy returns the mean test accuracy over the last k evaluated
// rounds — the "test accuracy" cells in Tab. I/II, which smooth the tail of
// the accuracy curve. It returns NaN if no round was evaluated.
func (h *History) FinalAccuracy(k int) float64 {
	sum, n := 0.0, 0
	for i := len(h.Rounds) - 1; i >= 0 && n < k; i-- {
		if !math.IsNaN(h.Rounds[i].TestAcc) {
			sum += h.Rounds[i].TestAcc
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// BestAccuracy returns the maximum test accuracy seen.
func (h *History) BestAccuracy() float64 {
	best := math.NaN()
	for _, r := range h.Rounds {
		if !math.IsNaN(r.TestAcc) && (math.IsNaN(best) || r.TestAcc > best) {
			best = r.TestAcc
		}
	}
	return best
}

// RoundsToAccuracy returns the first round index (1-based) whose test
// accuracy reaches target, or -1 if the run never does — the "minimal
// rounds needed" metric of Fig. 10a/b.
func (h *History) RoundsToAccuracy(target float64) int {
	for _, r := range h.Rounds {
		if !math.IsNaN(r.TestAcc) && r.TestAcc >= target {
			return r.Round + 1
		}
	}
	return -1
}

// Volatility returns the standard deviation of the last k evaluated test
// accuracies — the quantitative form of the paper's observation that the
// baselines' accuracy curves "oscillate violently" on non-IID data while
// rFedAvg(+)'s stay stable. Lower is more stable.
func (h *History) Volatility(k int) float64 {
	var tail []float64
	for i := len(h.Rounds) - 1; i >= 0 && len(tail) < k; i-- {
		if !math.IsNaN(h.Rounds[i].TestAcc) {
			tail = append(tail, h.Rounds[i].TestAcc)
		}
	}
	if len(tail) < 2 {
		return 0
	}
	_, std := MeanStd(tail)
	return std
}

// TotalBytes returns the cumulative up/down communication volume.
func (h *History) TotalBytes() (up, down int64) {
	for _, r := range h.Rounds {
		up += r.UpBytes
		down += r.DownBytes
	}
	return up, down
}

// MeanRoundSeconds returns the mean wall-clock time per round — the
// "training time per round" metric of Fig. 10c/d.
func (h *History) MeanRoundSeconds() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range h.Rounds {
		s += r.Seconds
	}
	return s / float64(len(h.Rounds))
}

// Fairness summarizes the distribution of per-client accuracies (Fig. 11).
type Fairness struct {
	Mean, Std   float64
	Min, Max    float64
	WorstDecile float64 // mean accuracy of the worst 10% of clients
	BottomQuart float64 // mean accuracy of the worst 25% of clients
	ClientCount int
}

// NewFairness computes fairness statistics from per-client accuracies.
func NewFairness(accs []float64) Fairness {
	if len(accs) == 0 {
		return Fairness{}
	}
	sorted := append([]float64(nil), accs...)
	sort.Float64s(sorted)
	f := Fairness{Min: sorted[0], Max: sorted[len(sorted)-1], ClientCount: len(sorted)}
	for _, a := range sorted {
		f.Mean += a
	}
	f.Mean /= float64(len(sorted))
	for _, a := range sorted {
		d := a - f.Mean
		f.Std += d * d
	}
	f.Std = math.Sqrt(f.Std / float64(len(sorted)))
	f.WorstDecile = meanPrefix(sorted, (len(sorted)+9)/10)
	f.BottomQuart = meanPrefix(sorted, (len(sorted)+3)/4)
	return f
}

func meanPrefix(sorted []float64, k int) float64 {
	if k <= 0 {
		k = 1
	}
	s := 0.0
	for _, a := range sorted[:k] {
		s += a
	}
	return s / float64(k)
}

// String renders the fairness summary in one line.
func (f Fairness) String() string {
	return fmt.Sprintf("mean %.4f ± %.4f, min %.4f, worst-10%% %.4f (n=%d)",
		f.Mean, f.Std, f.Min, f.WorstDecile, f.ClientCount)
}

// Summary renders a short multi-line report of the run.
func (h *History) Summary() string {
	var b strings.Builder
	up, down := h.TotalBytes()
	fmt.Fprintf(&b, "%s: %d rounds, final acc %.4f, best %.4f, %.3fs/round, up %s, down %s",
		h.Algorithm, len(h.Rounds), h.FinalAccuracy(5), h.BestAccuracy(),
		h.MeanRoundSeconds(), FormatBytes(up), FormatBytes(down))
	return b.String()
}

// FormatBytes renders a byte count in human-readable units.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// MeanStd returns the mean and sample standard deviation of xs, used for
// the "mean ± std over repetitions" cells of Tab. I/II.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) == 1 {
		return mean, 0
	}
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)-1))
}
