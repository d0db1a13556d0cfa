package transport

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// deadlineController replaces the single fixed RoundDeadline with a bound
// that tracks observed client latency. It keeps a per-client EWMA of
// assignment→update round-trip times, and once per round sets the deadline
// to a high quantile of those EWMAs times a headroom factor, clamped to
// [min, max] — so a fleet that speeds up stops waiting on a stale guess,
// and one slow round does not whipsaw the bound.
//
// observe runs on the server's one dispatcher (session.deliver) and update
// in the round loop on that same goroutine. Both paths are allocation-free
// after construction, like the other hot-path telemetry.
type deadlineController struct {
	// ewma[i] is client i's smoothed round-trip seconds; 0 means unobserved.
	ewma []float64
	// scratch holds the nonzero EWMAs for the quantile pick, insertion-sorted
	// in place (sort.Float64s escapes to an interface — this path must not
	// allocate).
	scratch []float64

	min, max time.Duration
	cur      atomic.Int64 // current deadline, nanoseconds

	gauge *telemetry.Gauge     // rfl_adaptive_deadline_seconds
	hist  *telemetry.Histogram // rfl_client_round_seconds
}

// Controller smoothing and targeting constants: EWMA weight of the newest
// observation, the quantile of per-client EWMAs the deadline targets, and
// the safety headroom multiplied on top of it.
const (
	ctrlAlpha    = 0.3
	ctrlQuantile = 0.9
	ctrlHeadroom = 1.5
)

// newDeadlineController starts at the configured RoundDeadline and adapts
// within [minD, maxD].
func newDeadlineController(n int, initial, minD, maxD time.Duration, m *serverMetrics) *deadlineController {
	c := &deadlineController{
		ewma:    make([]float64, n),
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

// observe folds one client's assignment→update round-trip into its EWMA and
// the per-client round-time histogram.
func (c *deadlineController) observe(client int, d time.Duration) {
	sec := d.Seconds()
	c.hist.Observe(sec)
	if c.ewma[client] == 0 {
		c.ewma[client] = sec
		return
	}
	c.ewma[client] = (1-ctrlAlpha)*c.ewma[client] + ctrlAlpha*sec
}

// update recomputes the deadline from the observed EWMAs and publishes it to
// the gauge. Call once per round, between the gather barriers. It returns
// the new deadline (unchanged when nothing has been observed yet).
func (c *deadlineController) update() time.Duration {
	s := c.scratch[:0]
	for _, e := range c.ewma {
		if e <= 0 {
			continue
		}
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
	d := c.clamp(time.Duration(ctrlHeadroom * s[q] * float64(time.Second)))
	c.cur.Store(int64(d))
	c.gauge.Set(d.Seconds())
	return d
}
