// Package telemetry is a minimal, allocation-free metrics layer: atomic
// counters and gauges, fixed-bucket histograms, a registry with hand-rolled
// Prometheus text exposition, per-phase spans, one JSONL observer stream
// (RunLedger: span, round and event lines), and an HTTP listener serving
// /metrics, /healthz, and net/http/pprof — all on the standard library alone.
//
// The design contract is the same one the training hot path obeys (see
// DESIGN.md, "Memory model & buffer ownership"): every metric is registered
// once, up front, and the record operations — Counter.Add, Gauge.Set,
// Histogram.Observe — are single atomic updates with zero heap allocations,
// so instrumentation can sit inside the zero-alloc train step without
// perturbing what it measures. Allocation happens only at registration and
// at scrape time, both off the hot path.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters are normally obtained from a Registry so they appear in the
// exposition.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the Prometheus counter contract; this is
// not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d via a compare-and-swap loop (allocation-free).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative style.
// Buckets are chosen at registration and never change, so Observe is a
// linear scan over a handful of bounds plus two atomic adds — no locking,
// no allocation.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Int64
	inf     atomic.Int64 // observations above the last bound
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	if v != v {
		// NaN compares false against every bound and would land in the
		// first bucket; Prometheus semantics put it in +Inf instead.
		i = len(h.bounds)
	}
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns a streaming estimate of the q-quantile (q in [0, 1])
// by linear interpolation inside the bucket holding the target rank — the
// same estimate a Prometheus histogram_quantile() would produce from the
// cumulative series. Observations in the +Inf bucket clamp to the largest
// finite bound. NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.Count()
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// DefDurationBuckets covers sub-millisecond kernel phases up to ten-second
// stalls — the default for the round/phase span histograms.
var DefDurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered series: a metric plus its full name (which may
// carry a fixed label set baked in at registration, e.g.
// `rfl_phase_seconds{phase="join"}`).
type entry struct {
	name   string // full series name including optional {labels}
	base   string // name up to the label braces
	labels string // label content between the braces, "" if none
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics and renders them as Prometheus text.
// Registration is idempotent: asking for an existing name returns the same
// metric (the first registration's help text and buckets win), so multiple
// sessions and packages can share one registry without coordination.
// Asking for an existing name as a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation (tensor GEMM calls, nn passes, fl local steps, the
// transport codec) registers into.
func Default() *Registry { return defaultRegistry }

// splitName separates an optional baked-in label set from the series name:
// `foo{a="b"}` → ("foo", `a="b"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	j := strings.LastIndexByte(name, '}')
	if j < i {
		panic(fmt.Sprintf("telemetry: malformed metric name %q", name))
	}
	return name[:i], name[i+1 : j]
}

func (r *Registry) register(name, help string, kind metricKind, mk func(e *entry)) *entry {
	base, labels := splitName(name)
	if base == "" {
		panic("telemetry: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{name: name, base: base, labels: labels, help: help, kind: kind}
	mk(e)
	r.byName[name] = e
	r.entries = append(r.entries, e)
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(e *entry) { e.counter = &Counter{} }).counter
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func(e *entry) { e.gauge = &Gauge{} }).gauge
}

// Histogram registers (or returns the existing) histogram under name with
// the given upper bucket bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, kindHistogram, func(e *entry) { e.hist = newHistogram(bounds) }).hist
}

// snapshot copies the entry list under the lock so exposition never holds
// it while writing.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*entry(nil), r.entries...)
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series renders one sample line: name, optional labels, value.
func seriesLine(w io.Writer, base, labels, extraLabel, value string) error {
	var err error
	switch {
	case labels == "" && extraLabel == "":
		_, err = fmt.Fprintf(w, "%s %s\n", base, value)
	case labels == "":
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", base, extraLabel, value)
	case extraLabel == "":
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", base, labels, value)
	default:
		_, err = fmt.Fprintf(w, "%s{%s,%s} %s\n", base, labels, extraLabel, value)
	}
	return err
}

func (e *entry) writeSeries(w io.Writer) error {
	switch e.kind {
	case kindCounter:
		return seriesLine(w, e.base, e.labels, "", strconv.FormatInt(e.counter.Value(), 10))
	case kindGauge:
		return seriesLine(w, e.base, e.labels, "", formatFloat(e.gauge.Value()))
	default:
		h := e.hist
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			le := `le="` + formatFloat(b) + `"`
			if err := seriesLine(w, e.base+"_bucket", e.labels, le, strconv.FormatInt(cum, 10)); err != nil {
				return err
			}
		}
		cum += h.inf.Load()
		if err := seriesLine(w, e.base+"_bucket", e.labels, `le="+Inf"`, strconv.FormatInt(cum, 10)); err != nil {
			return err
		}
		if err := seriesLine(w, e.base+"_sum", e.labels, "", formatFloat(h.Sum())); err != nil {
			return err
		}
		return seriesLine(w, e.base+"_count", e.labels, "", strconv.FormatInt(cum, 10))
	}
}

// WriteText renders the registry in the Prometheus text exposition format.
// Series sharing a base name (the same metric with different baked-in
// labels) are grouped under one # HELP/# TYPE header, as the format
// requires.
func (r *Registry) WriteText(w io.Writer) error {
	entries := r.snapshot()
	var order []string
	groups := make(map[string][]*entry, len(entries))
	for _, e := range entries {
		if _, ok := groups[e.base]; !ok {
			order = append(order, e.base)
		}
		groups[e.base] = append(groups[e.base], e)
	}
	for _, base := range order {
		es := groups[base]
		if es[0].help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, es[0].help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, es[0].kind); err != nil {
			return err
		}
		for _, e := range es {
			if err := e.writeSeries(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteSummary renders a compact human-readable end-of-run dump: one line
// per series, skipping counters and histograms that never fired (gauges are
// always shown — zero can be meaningful there).
func (r *Registry) WriteSummary(w io.Writer) error {
	for _, e := range r.snapshot() {
		var err error
		switch e.kind {
		case kindCounter:
			if v := e.counter.Value(); v != 0 {
				_, err = fmt.Fprintf(w, "%-48s %d\n", e.name, v)
			}
		case kindGauge:
			_, err = fmt.Fprintf(w, "%-48s %s\n", e.name, formatFloat(e.gauge.Value()))
		default:
			if n := e.hist.Count(); n != 0 {
				sum := e.hist.Sum()
				_, err = fmt.Fprintf(w, "%-48s count=%d sum=%s mean=%s p50=%s p95=%s p99=%s\n",
					e.name, n, formatFloat(sum), formatFloat(sum/float64(n)),
					formatFloat(e.hist.Quantile(0.50)),
					formatFloat(e.hist.Quantile(0.95)),
					formatFloat(e.hist.Quantile(0.99)))
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
