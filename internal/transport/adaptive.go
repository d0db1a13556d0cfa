package transport

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// deadlineController replaces the single fixed RoundDeadline with a bound
// that tracks observed client latency. It keeps a per-client RFC 6298
// estimate of assignment→update round-trip times — a smoothed RTT and its
// mean deviation, bounded by SRTT + max(SRTT/2, 4·RTTVAR) — and once per
// round sets the deadline to a high quantile of those per-client bounds,
// clamped to [min, max]. A client's bound covers its own jitter (three times
// its first sample before any deviation is known) and never falls below
// 1.5 × SRTT, so a steady fleet keeps room for a client just above the
// quantile; a fleet that speeds up stops waiting on a stale guess and one
// slow round does not whipsaw the bound.
//
// observe runs on the server's one dispatcher (session.deliver) and update
// in the round loop on that same goroutine. Both paths are allocation-free
// after construction, like the other hot-path telemetry.
type deadlineController struct {
	// srtt[i] is client i's smoothed round-trip seconds (0 means
	// unobserved) and rttvar[i] its smoothed mean deviation.
	srtt, rttvar []float64
	// scratch holds the observed clients' bounds for the quantile pick,
	// insertion-sorted in place (sort.Float64s escapes to an interface —
	// this path must not allocate).
	scratch []float64

	min, max time.Duration
	cur      atomic.Int64 // current deadline, nanoseconds

	gauge *telemetry.Gauge     // rfl_adaptive_deadline_seconds
	hist  *telemetry.Histogram // rfl_client_round_seconds
}

// Controller constants: RFC 6298's gains of the newest sample in SRTT (α)
// and RTTVAR (β) and its deviation multiplier K, the least margin over SRTT
// as a fraction of it (the role of RFC 6298's clock granularity G), and the
// quantile of per-client bounds the deadline targets.
const (
	ctrlAlpha     = 1.0 / 8
	ctrlBeta      = 1.0 / 4
	ctrlK         = 4
	ctrlMinMargin = 0.5
	ctrlQuantile  = 0.9
)

// newDeadlineController starts at the configured RoundDeadline and adapts
// within [minD, maxD].
func newDeadlineController(n int, initial, minD, maxD time.Duration, m *serverMetrics) *deadlineController {
	c := &deadlineController{
		srtt:    make([]float64, n),
		rttvar:  make([]float64, n),
		scratch: make([]float64, 0, n),
		min:     minD,
		max:     maxD,
		gauge:   m.adaptiveDeadline,
		hist:    m.clientRoundSec,
	}
	c.cur.Store(int64(c.clamp(initial)))
	c.gauge.Set(c.clamp(initial).Seconds())
	return c
}

func (c *deadlineController) clamp(d time.Duration) time.Duration {
	if d < c.min {
		d = c.min
	}
	if d > c.max {
		d = c.max
	}
	return d
}

// current returns the deadline to apply to the next phase.
func (c *deadlineController) current() time.Duration {
	return time.Duration(c.cur.Load())
}

// observe folds one client's assignment→update round-trip R into its
// estimate and the per-client round-time histogram: the first sample seeds
// SRTT = R and RTTVAR = R/2, later ones move RTTVAR toward |SRTT − R| by β
// and SRTT toward R by α.
func (c *deadlineController) observe(client int, d time.Duration) {
	r := d.Seconds()
	c.hist.Observe(r)
	if c.srtt[client] == 0 {
		c.srtt[client], c.rttvar[client] = r, r/2
		return
	}
	c.rttvar[client] = (1-ctrlBeta)*c.rttvar[client] + ctrlBeta*math.Abs(c.srtt[client]-r)
	c.srtt[client] = (1-ctrlAlpha)*c.srtt[client] + ctrlAlpha*r
}

// update recomputes the deadline from the observed clients' bounds and
// publishes it to the gauge. Call once per round, between the gather
// barriers. It returns the new deadline (unchanged when nothing has been
// observed yet).
func (c *deadlineController) update() time.Duration {
	s := c.scratch[:0]
	for i, srtt := range c.srtt {
		if srtt <= 0 {
			continue
		}
		e := srtt + max(ctrlMinMargin*srtt, ctrlK*c.rttvar[i])
		// Insertion sort keeps the slice ordered as it fills; fleets are
		// small (10²) and the slice is nearly sorted between rounds.
		j := len(s)
		s = append(s, e)
		for ; j > 0 && s[j-1] > e; j-- {
			s[j] = s[j-1]
		}
		s[j] = e
	}
	c.scratch = s[:0]
	if len(s) == 0 {
		return c.current()
	}
	q := int(ctrlQuantile * float64(len(s)-1))
	d := c.clamp(time.Duration(s[q] * float64(time.Second)))
	c.cur.Store(int64(d))
	c.gauge.Set(d.Seconds())
	return d
}
