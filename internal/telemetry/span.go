package telemetry

import "time"

// Phase names one timed step of a federated session. Those before PhaseJoin
// are a round attempt's, in the order the server runs them (the simulator runs
// gather, close and delta_sync); a ledger line carries each one that ran.
type Phase uint8

const (
	PhasePrepare Phase = iota
	PhaseBroadcast
	PhaseGather
	PhaseValidate
	PhaseClose
	PhaseDeltaSync
	PhaseAge
	PhaseJoin
	PhaseCheckpoint
	PhaseRound
	NumPhases
)

var phaseNames = [NumPhases]string{"prepare", "broadcast", "gather", "validate", "close", "delta_sync", "age", "join", "checkpoint", "round"}

// String returns the phase's span name and metric label.
func (p Phase) String() string { return phaseNames[p] }

// Phases is a session's one clock. Time runs a phase under a trace span and
// takes its duration from that span's End; the same number goes to Hist[p]
// when Hist is non-nil and, when Rec is, into the ledger record: PhaseRound's
// as DurNanos, a round step's into phase_ms.
type Phases struct {
	Tracer *Tracer
	Hist   *[NumPhases]*Histogram
	Rec    *RoundRecord
}

// Time runs run as phase p of round (−1: none) under a span parented to
// parent, passing it the span's context, and returns the phase's duration.
func (ps *Phases) Time(p Phase, parent SpanContext, round int, run func(SpanContext)) time.Duration {
	sp := ps.Tracer.Start(phaseNames[p], parent)
	sp.Round = round
	run(sp.Context())
	d := sp.End()
	if ps.Hist != nil {
		ps.Hist[p].Observe(d.Seconds())
	}
	switch r := ps.Rec; {
	case r == nil:
	case p == PhaseRound:
		r.DurNanos = int64(d)
	case p < PhaseJoin:
		r.phaseNanos[p], r.phaseRan = int64(d), r.phaseRan|1<<p
	}
	return d
}
