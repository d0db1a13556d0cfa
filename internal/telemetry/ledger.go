package telemetry

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

// RunLedger is a process's one observer stream: JSONL lines, each tagged
// "kind". Record writes a "round" line per round attempt with the quantities
// the paper argues about — round loss, per-client losses and update norms,
// the N×N pairwise MMD matrix the regularizer minimizes, δ-table staleness,
// fault events, and per-round wire bytes (the O(dN²) vs O(dN) comparison
// between rFedAvg and rFedAvg+). Emit writes an "event" line per lifecycle
// event, and the tracers it hands out (Tracer) write "span" lines.
//
// The three kinds share one lock, one writer and one reused buffer, and every
// line is one Write call, so lines never interleave. After each round and
// event line the ledger flushes w if w has a Flush method (a *bufio.Writer):
// a crash loses at most the spans since. Like the rest of the package it is
// reflection-free: the caller fills a reusable RoundRecord (slices are kept
// and refilled between rounds), so steady-state capture allocates nothing.
// A nil *RunLedger discards everything.
type RunLedger struct {
	mu      sync.Mutex
	w       io.Writer
	flusher interface{ Flush() error }
	buf     []byte
}

// NewRunLedger wraps w (typically a *bufio.Writer over an *os.File).
func NewRunLedger(w io.Writer) *RunLedger {
	l := &RunLedger{w: w}
	l.flusher, _ = w.(interface{ Flush() error })
	return l
}

// begin locks the stream and starts a line of the given kind in the reused
// buffer. Every begin is paired with an end.
func (l *RunLedger) begin(kind string) []byte {
	l.mu.Lock()
	b := append(l.buf[:0], `{"kind":"`...)
	return append(append(b, kind...), '"')
}

// end closes the line begun by begin, writes it whole, flushes when flush is
// set, and unlocks the stream. Write and flush errors are dropped: a failing
// observer stream must not stop the session it observes.
func (l *RunLedger) end(b []byte, flush bool) {
	b = append(b, '}', '\n')
	l.buf = b
	l.w.Write(b)
	if flush && l.flusher != nil {
		l.flusher.Flush()
	}
	l.mu.Unlock()
}

// Emit writes the event line {"kind":"event","ts":…,"event":…,"round":…,
// "detail":…}; detail is omitted when empty. Strings are escaped with JSON
// escapes (appendJSONString), not strconv.Quote's Go escapes — \xNN and \a
// are valid Go but corrupt a JSONL stream.
func (l *RunLedger) Emit(event string, round int, detail string) {
	if l == nil {
		return
	}
	b := l.begin("event")
	b = append(b, `,"ts":"`...)
	b = time.Now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","event":`...)
	b = appendJSONString(b, event)
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(round), 10)
	if detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, detail)
	}
	l.end(b, true)
}

// DefaultLedgerDetailN is the client-count threshold above which both
// drivers switch the ledger from per-client detail (O(N) arrays, O(N²) MMD
// block per line) to summary statistics and a sampled MMD sub-matrix.
const DefaultLedgerDetailN = 256

// LedgerMMDSampleK is the sub-matrix edge recorded in summary mode: K
// evenly-spaced δ rows whose K×K pairwise MMD stands in for the full N×N
// block.
const LedgerMMDSampleK = 8

// StatTriple accumulates min/mean/max over a stream of values — the
// summary the ledger records instead of a per-client array at large N.
type StatTriple struct {
	Min, Max, sum float64
	N             int
}

// Add folds one value into the triple.
func (s *StatTriple) Add(v float64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.sum += v
	s.N++
}

// Mean returns the accumulated mean (NaN when empty).
func (s *StatTriple) Mean() float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.N)
}

// RoundRecord is one ledger line. Zero-length slices are omitted from the
// output; NaN and ±Inf values become JSON null.
type RoundRecord struct {
	Algo    string
	Round   int
	Attempt int  // 1-based attempt number within the round (retries bump it)
	OK      bool // false for a failed attempt that will be retried

	Loss     float64
	DurNanos int64
	// phaseNanos[p] is round step p's time if bit p of phaseRan is set.
	phaseNanos [PhaseJoin]int64
	phaseRan   uint8

	UpBytes   int64 // client→server wire bytes this round
	DownBytes int64 // server→client wire bytes this round
	// Elided counts the round's assignments that went out without the model
	// because the client still held it from the previous round's second
	// synchronization (rFedAvg+): DownBytes is that many models lighter.
	Elided int

	// UpScheme names the wire-compression scheme of this round's client
	// updates ("q8", "dense", ...); empty in the simulator, which has no
	// wire, and when the round gathered no update.
	UpScheme string

	ClientLoss []float64 // per sampled client, aligned with ClientID
	ClientNorm []float64 // per sampled client ‖update − global‖₂
	ClientID   []int     // which clients the loss/norm entries belong to

	// Summary-mode fields (sessions above DefaultLedgerDetailN clients):
	// the cohort size that aggregated, min/mean/max over the cohort's
	// losses and update norms, and min/mean/max over all δ-row ages —
	// O(1) per line where the arrays above would be O(N).
	Cohort    int
	LossStats StatTriple
	NormStats StatTriple
	AgeStats  StatTriple

	MMD    []float64 // row-major MMDDim×MMDDim pairwise feature-map distances
	MMDDim int
	// MMDSample lists the δ rows behind a summary-mode MMD block: MMD is
	// then the K×K sub-matrix over these rows, not the full N×N matrix.
	MMDSample []int

	DeltaAges []int // per-client δ-table row age (rounds since refresh)
	StaleRows int

	Evicted []int // client IDs evicted during this attempt
	Rejoins int   // clients re-admitted at this round boundary

	// Async-mode fields: the parked updates folded into this round's
	// aggregate (LateAge aligned with LateID, in rounds), and the deadline
	// in force for the attempt (0 means no deadline configured).
	LateID      []int
	LateAge     []int
	DeadlineSec float64

	// Health-monitor fields: per-client scores aligned with ClientID in
	// detail mode, a min/mean/max triple in summary mode, plus the round
	// verdict and unhealthy count. All empty when monitoring is off.
	Health      []float64
	HealthStats StatTriple
	Verdict     string
	Unhealthy   int
}

// Reset clears r for reuse, keeping slice capacity.
func (r *RoundRecord) Reset() {
	r.Algo = ""
	r.Round, r.Attempt = 0, 0
	r.OK = false
	r.Loss, r.DurNanos, r.phaseRan = 0, 0, 0
	r.UpBytes, r.DownBytes, r.Elided = 0, 0, 0
	r.UpScheme = ""
	r.ClientLoss = r.ClientLoss[:0]
	r.ClientNorm = r.ClientNorm[:0]
	r.ClientID = r.ClientID[:0]
	r.Cohort = 0
	r.LossStats = StatTriple{}
	r.NormStats = StatTriple{}
	r.AgeStats = StatTriple{}
	r.MMD = r.MMD[:0]
	r.MMDDim = 0
	r.MMDSample = r.MMDSample[:0]
	r.DeltaAges = r.DeltaAges[:0]
	r.StaleRows = 0
	r.Evicted = r.Evicted[:0]
	r.Rejoins = 0
	r.LateID = r.LateID[:0]
	r.LateAge = r.LateAge[:0]
	r.DeadlineSec = 0
	r.Health = r.Health[:0]
	r.HealthStats = StatTriple{}
	r.Verdict = ""
	r.Unhealthy = 0
}

// Record writes r as one "round" line. Safe on a nil ledger.
func (l *RunLedger) Record(r *RoundRecord) {
	if l == nil {
		return
	}
	b := l.begin("round")
	b = append(b, `,"algo":`...)
	b = appendJSONString(b, r.Algo)
	b = append(b, `,"round":`...)
	b = strconv.AppendInt(b, int64(r.Round), 10)
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(r.Attempt), 10)
	b = append(b, `,"ok":`...)
	b = strconv.AppendBool(b, r.OK)
	b = append(b, `,"loss":`...)
	b = appendJSONFloat(b, r.Loss)
	b = append(b, `,"dur_ns":`...)
	b = strconv.AppendInt(b, r.DurNanos, 10)
	if r.phaseRan != 0 {
		b = append(b, `,"phase_ms":{`...)
		for p := range PhaseJoin {
			if r.phaseRan&(1<<p) != 0 {
				b = append(appendJSONString(b, phaseNames[p]), ':')
				b = append(appendJSONFloat(b, float64(r.phaseNanos[p])/1e6), ',')
			}
		}
		b[len(b)-1] = '}'
	}
	b = append(b, `,"up_bytes":`...)
	b = strconv.AppendInt(b, r.UpBytes, 10)
	b = append(b, `,"down_bytes":`...)
	b = strconv.AppendInt(b, r.DownBytes, 10)
	if r.Elided > 0 {
		b = append(b, `,"elided":`...)
		b = strconv.AppendInt(b, int64(r.Elided), 10)
	}
	if r.UpScheme != "" {
		b = append(b, `,"up_scheme":`...)
		b = appendJSONString(b, r.UpScheme)
	}
	if len(r.ClientID) > 0 {
		b = append(b, `,"client_id":`...)
		b = appendJSONInts(b, r.ClientID)
	}
	if len(r.ClientLoss) > 0 {
		b = append(b, `,"client_loss":`...)
		b = appendJSONFloats(b, r.ClientLoss)
	}
	if len(r.ClientNorm) > 0 {
		b = append(b, `,"client_norm":`...)
		b = appendJSONFloats(b, r.ClientNorm)
	}
	if r.Cohort > 0 {
		b = append(b, `,"cohort":`...)
		b = strconv.AppendInt(b, int64(r.Cohort), 10)
	}
	if r.LossStats.N > 0 {
		b = appendStatTriple(b, `,"loss_stats":`, &r.LossStats)
	}
	if r.NormStats.N > 0 {
		b = appendStatTriple(b, `,"norm_stats":`, &r.NormStats)
	}
	if r.AgeStats.N > 0 {
		b = appendStatTriple(b, `,"age_stats":`, &r.AgeStats)
		b = append(b, `,"stale_rows":`...)
		b = strconv.AppendInt(b, int64(r.StaleRows), 10)
	}
	if len(r.MMD) > 0 {
		b = append(b, `,"mmd_dim":`...)
		b = strconv.AppendInt(b, int64(r.MMDDim), 10)
		if len(r.MMDSample) > 0 {
			b = append(b, `,"mmd_sample":`...)
			b = appendJSONInts(b, r.MMDSample)
		}
		b = append(b, `,"mmd":`...)
		b = appendJSONFloats(b, r.MMD)
	}
	if len(r.DeltaAges) > 0 {
		b = append(b, `,"delta_ages":`...)
		b = appendJSONInts(b, r.DeltaAges)
		b = append(b, `,"stale_rows":`...)
		b = strconv.AppendInt(b, int64(r.StaleRows), 10)
	}
	if len(r.Evicted) > 0 {
		b = append(b, `,"evicted":`...)
		b = appendJSONInts(b, r.Evicted)
	}
	if r.Rejoins > 0 {
		b = append(b, `,"rejoins":`...)
		b = strconv.AppendInt(b, int64(r.Rejoins), 10)
	}
	if len(r.LateID) > 0 {
		b = append(b, `,"late_id":`...)
		b = appendJSONInts(b, r.LateID)
		b = append(b, `,"late_age":`...)
		b = appendJSONInts(b, r.LateAge)
	}
	if r.DeadlineSec > 0 {
		b = append(b, `,"deadline_sec":`...)
		b = appendJSONFloat(b, r.DeadlineSec)
	}
	if len(r.Health) > 0 {
		b = append(b, `,"health":`...)
		b = appendJSONFloats(b, r.Health)
	}
	if r.HealthStats.N > 0 {
		b = appendStatTriple(b, `,"health_stats":`, &r.HealthStats)
	}
	if r.Verdict != "" {
		b = append(b, `,"verdict":`...)
		b = appendJSONString(b, r.Verdict)
		b = append(b, `,"unhealthy":`...)
		b = strconv.AppendInt(b, int64(r.Unhealthy), 10)
	}
	l.end(b, true)
}

// appendStatTriple appends `<key>[min,mean,max]` to b.
func appendStatTriple(b []byte, key string, s *StatTriple) []byte {
	b = append(b, key...)
	b = append(b, '[')
	b = appendJSONFloat(b, s.Min)
	b = append(b, ',')
	b = appendJSONFloat(b, s.Mean())
	b = append(b, ',')
	b = appendJSONFloat(b, s.Max)
	b = append(b, ']')
	return b
}
