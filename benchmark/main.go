// Command benchmark is the repository's end-to-end benchmark: four
// federated-round workloads driven through the public functions of the
// packages under internal/, measured from outside. One run measures one
// workload for --seconds and prints every metric by name and unit, then one
// JSON result line. With --trace 0 the metrics are the end-to-end ones,
// taken from untraced passes; with --trace 1 they are the per-layer ones,
// taken from traced passes, baselines and layer probes. README.md is the
// dictionary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order    []string // print order of Metrics
	problems []string
	trace    []byte    // spans of the last traced pass, JSONL
	calib    []float64 // calibration kernel times, ms (see calib.go)
}

// slowdown is how much slower than the reference the box ran during the
// run, judged by the quiet end of the calibration samples.
func (r *result) slowdown() float64 { return quiet(r.calib) / calibRefMS }

func (r *result) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds a pass's operations and failed checks into the result.
func (r *result) count(label string, p *passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, msg := range p.problems {
		r.problems = append(r.problems, label+": "+msg)
	}
}

// minPasses is the fewest fresh sessions an end-to-end metric is a median
// of; minTracedPairs the fewest (untraced, traced) pairs behind a per-layer
// run, whose budget also has to cover baselines and probes.
const (
	minPasses      = 3
	minTracedPairs = 2
	// Extra set-up-only sessions of an end-to-end run: at least and at most.
	minSetups, maxSetups = 3, 40
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (required): one of the names in BENCHMARK.json")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 20, "how long to measure")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes and probes")
		traceOut = flag.String("trace-out", "", "with --trace 1, write the last traced pass's spans here as trace JSONL")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res = runPerLayer(w, *seed, budget)
	} else {
		res = runEndToEnd(w, *seed, budget)
	}
	if *traceOut != "" && res.trace != nil {
		if err := os.WriteFile(*traceOut, res.trace, 0o644); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("trace-out: %v", err))
		}
	}
	if err := res.print(os.Stdout, w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// print writes the metric table, any failed checks, and the result line.
func (r *result) print(out io.Writer, w *workload) error {
	fmt.Fprintf(out, "workload %s: GOMAXPROCS %d, NumCPU %d, %s, box slowdown %.3f\n",
		w.name, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), r.slowdown())
	for _, name := range r.order {
		m := r.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, m.Value))
			m.Value = 0
			r.Metrics[name] = m
		}
		fmt.Fprintf(out, "%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "FAILED CHECK %s\n", p)
	}
	if len(r.problems) > 0 && r.Failed == 0 {
		r.Failed = r.Attempted
	}
	r.Correct = len(r.problems) == 0 && r.Failed == 0
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// repeat runs passes of w, one of each variant in turn, until budget is
// spent and at least atLeast times, and gates on their outputs being
// bit-identical.
func repeat(r *result, w *workload, seed int64, budget time.Duration, atLeast int, variants ...passOpts) [][]*passResult {
	passes := make([][]*passResult, len(variants))
	start := time.Now()
	for n := 0; ; n++ {
		for v, o := range variants {
			if n > 0 {
				// Keep only the latest pass's bulk (model, spans), so what
				// the benchmark retains does not grow into live_heap_mib.
				prev := passes[v][n-1]
				prev.final, prev.traceJSONL, prev.spans = nil, nil, nil
			}
			for i := 0; i < calibSlices; i++ {
				r.calib = append(r.calib, calibrate())
			}
			p := runPass(w, seed, o)
			r.count(fmt.Sprintf("pass %d", n), p)
			passes[v] = append(passes[v], p)
		}
		// Stop where another round of passes would overshoot the budget by
		// more than it undershoots now.
		elapsed := time.Since(start)
		if n+1 >= atLeast && elapsed+elapsed/time.Duration(2*(n+1)) >= budget {
			break
		}
	}
	for v := range variants {
		first := passes[v][0]
		for n, p := range passes[v][1:] {
			if p.paramHash != first.paramHash || !sameFloats(p.losses, first.losses) {
				r.problems = append(r.problems, fmt.Sprintf("pass %d is not bit-identical to pass 0 (same seed)", n+1))
			}
		}
	}
	return passes
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runEndToEnd measures the eight end-to-end metrics from the run's passes.
// Counts, heap and accuracy are the median over passes of the pass's value.
// The three timings are the 5th percentile of their samples pooled over all
// passes (see quiet) — every timed round's latency, every timed round's CPU
// time, every set-up — divided by the run's box slowdown.
func runEndToEnd(w *workload, seed int64, budget time.Duration) *result {
	r := &result{Metrics: map[string]metric{}}
	start := time.Now()
	passes := repeat(r, w, seed, budget*9/10, minPasses, passOpts{})[0]
	setups := pool(passes, func(p *passResult) []float64 { return []float64{p.setupS} })
	// A handful of passes gives a low percentile of set-up little to choose
	// from, and set-up is cheap: the last tenth of the budget repeats it
	// alone, as sessions of a single round.
	short := *w
	short.rounds, short.warmup, short.accFloor = 1, 0, 0
	for n := 0; n < minSetups || (n < maxSetups && time.Since(start) < budget); n++ {
		p := runPass(&short, seed, passOpts{})
		r.count(fmt.Sprintf("set-up pass %d", n), p)
		setups = append(setups, p.setupS)
	}

	n := float64(w.timedRounds())
	med := func(get func(*passResult) float64) float64 { return medianOf(passes, get) }
	timing := func(samples []float64) float64 { return quiet(samples) / r.slowdown() }
	r.set("setup_s", "s", timing(setups))
	r.set("round_ms_p05", "ms", timing(pool(passes, func(p *passResult) []float64 { return p.roundMS })))
	r.set("cpu_ms_per_round_p05", "ms", timing(pool(passes, func(p *passResult) []float64 { return p.roundCPUMS })))
	r.set("wire_bytes_per_round", "bytes", med(func(p *passResult) float64 { return float64(p.upBytes+p.downBytes) / n }))
	r.set("allocs_per_round", "count", med(func(p *passResult) float64 { return p.mallocs / n }))
	r.set("alloc_kib_per_round", "KiB", med(func(p *passResult) float64 { return p.allocBytes / 1024 / n }))
	r.set("live_heap_mib", "MiB", med(func(p *passResult) float64 { return p.liveHeapMiB }))
	r.set("final_acc", "fraction", med(func(p *passResult) float64 { return p.finalAcc }))
	return r
}
