package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of vs (mean of the two middles for even n); NaN
// when empty. vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile is the linear-interpolated q-quantile of vs.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailPermilles are the candidates for the reported tail, ascending, in
// thousandths so the sample arithmetic stays exact.
var tailPermilles = []int{750, 900, 950, 990, 999}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of the n samples beyond it; 50 when none has.
func tailPercentile(n int) float64 {
	best := 500
	for _, p := range tailPermilles {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// medianOf takes the median across passes of one per-pass value.
func medianOf(passes []*passResult, get func(*passResult) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = get(p)
	}
	return median(vs)
}

// pool gathers one kind of sample from every pass.
func pool(passes []*passResult, get func(*passResult) []float64) []float64 {
	var all []float64
	for _, p := range passes {
		all = append(all, get(p)...)
	}
	return all
}

// quiet is the estimator of every gated timing: the 5th percentile of the
// samples. The benchmark shares its two CPUs with neighbours whose bursts
// last seconds and only ever add time, so the median of identical runs
// moves by 20–30 % where the low percentile — what the work costs when the
// box leaves it alone — moves by about 10 % (README.md has the table).
func quiet(samples []float64) float64 { return quantile(samples, 0.05) }

// usage is a point reading of the process counters the end-to-end metrics
// are deltas of.
type usage struct {
	at  time.Time
	cpu time.Duration // user + system
	mem runtime.MemStats
}

func readUsage() usage {
	u := usage{at: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and reports what stays reachable.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hashFloats is the bit-exact fingerprint the determinism gate compares.
func hashFloats(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
