// Package health scores every client's contribution to a federated run in
// real time. A Monitor keeps per-client rolling statistics — a loss EWMA
// with variance, a robust update-norm z-score against a ring-buffered
// median/MAD of the whole run's norms, a leave-one-out cosine of the
// client's update direction against the rest of the cohort, the per-client
// MMD drift read off the δ table, and staleness/eviction/fold history —
// and folds them into one scalar health score in [0, 1] per client plus a
// round-level verdict ("ok", "warn", "critical"). A threshold-rule alert
// engine emits telemetry.EventLog events and rfl_health_* metrics when a
// client or the run crosses a rule.
//
// The observation path is allocation-free at steady state: per-client
// state is allocated once on first sight (the codec-slot pattern), cohort
// scratch is reused round over round, medians run an insertion sort over a
// preallocated buffer, and no map is touched. Memory is O(clients ever
// observed) — at 100k simulated clients with 0.1% sampling that is the
// few hundred clients that ever participate, not the population. All
// Monitor methods are safe on a nil receiver, so call sites wire the
// monitor through unconditionally.
//
// The leave-one-out cosine needs no O(cohort²) pairwise pass: during the
// first sweep AccumDirection accumulates the cohort's normalized update
// directions into one d-vector S; per client, cos(Δ_i, S−Δ̂_i) then falls
// out of three scalars (‖Δ_i‖, Δ_i·S, ‖S‖²) in O(1). Sign-flipped
// updates land at cos ≈ −1 even though their norm and reported loss are
// honest — the signal norm z-scores cannot see.
package health

import (
	"math"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Score-formula constants. Each signal maps to a penalty in [0, 1]; the
// score is 1 minus the weighted penalties, clamped. Robust z penalties
// start at 3σ and saturate at 6σ. The cosine penalty starts at −0.6: honest
// clients under heavy label skew (similarity 0) genuinely anti-correlate
// down to cos ≈ −0.45 — one client's class-k gradient is another's negative
// — so the penalty must only engage well below that, saturating at the
// cos ≈ −1 of a sign-flipped update. The cosine only separates attacks
// when the cohort shares a direction, though: at similarity 0 the honest
// directions are near-orthogonal and a flip barely moves the cosine. The
// loss z-score covers that regime — a sign-flipped client's *own* reported
// loss climbs many robust σ above the cohort (the poisoned aggregate moves
// against its data) while honest clients stay under ~2.5σ, so its weight
// alone is enough to cross the unhealthy threshold.
const (
	weightNormZ  = 0.7  // robust update-norm z-score (scaled updates)
	weightCos    = 0.9  // leave-one-out direction cosine (sign flips)
	weightLossZ  = 0.6  // cohort loss z-score (poisoning victims, divergence)
	weightDriftZ = 0.3  // MMD drift vs cohort (distribution drift)
	weightStale  = 0.25 // rounds since last contribution
	weightEvict  = 0.5  // multiplicative decay applied on eviction

	zPenaltyStart = 3.0
	zPenaltyFull  = 6.0
	cosStart      = -0.6
	cosFull       = -0.95

	// madScale makes MAD a consistent σ estimate for normal data.
	madScale = 1.4826
)

// DefaultWindow is the cross-round norm-ring length: enough history for a
// stable median/MAD, small enough to track regime changes.
const DefaultWindow = 256

// DefaultUnhealthyBelow is the score under which a client counts as
// unhealthy in round verdicts and the default alert rule.
const DefaultUnhealthyBelow = 0.5

// Config parameterizes a Monitor. The zero value is usable: default
// registry, no event log, default rules.
type Config struct {
	// Registry receives the rfl_health_* metrics (Default() when nil).
	Registry *telemetry.Registry
	// Events, when non-nil, receives edge-triggered "health_alert" events.
	Events *telemetry.EventLog
	// Rules are the alert thresholds; nil means DefaultRules().
	Rules []Rule
}

// clientState is the per-client rolling record, allocated once when the
// client is first observed and reused forever after.
type clientState struct {
	id int

	// Loss EWMA + variance (EWMA of squared deviation, same decay).
	lossEWMA float64
	lossVar  float64
	seen     bool

	// Last-round signals, refreshed each time the client is in a cohort.
	loss   float64
	norm   float64
	normZ  float64
	cos    float64
	lossZ  float64
	drift  float64
	driftZ float64
	score  float64

	rounds      int // cohorts participated in
	folds       int // async late folds credited
	lastFoldAge int // staleness of the most recent fold, in rounds
	evictions   int
	lastRound   int // last round the client contributed (update or fold)
	evicted     bool

	hasDrift bool
	cohort   bool   // in the current round's cohort
	alerts   uint64 // active per-rule alert bits (edge detection)
}

// Monitor is the run-health engine. One Monitor watches one session; all
// methods are safe on a nil receiver and (except the constructor) safe for
// concurrent use.
type Monitor struct {
	mu sync.Mutex

	events *telemetry.EventLog
	rules  []Rule

	// Per-client slots, indexed by client ID, grown on demand; observed
	// lists the IDs with live state in first-seen order.
	slots    []*clientState
	observed []int

	round    int
	verdict  string
	runLoss  float64
	prevLoss float64
	lossRise int
	started  bool

	// Cross-round update-norm ring for the robust z-score.
	ring    []float64
	ringLen int
	ringPos int

	// Current-round cohort scratch, reused across rounds.
	cohort []*clientState

	// Direction accumulator for the leave-one-out cosine: the sum of the
	// cohort's normalized update directions, plus its sealed scalars.
	dir    []float64
	dirN   int
	sealed bool
	gS, s2 float64

	scratch []float64 // median/MAD sort buffer

	// Active alerts, rebuilt every EndRound; runAlerts is the run-level
	// edge mask mirroring clientState.alerts.
	active    []Alert
	runAlerts uint64

	// Metrics.
	mScoreMin  *telemetry.Gauge
	mScoreMean *telemetry.Gauge
	mUnhealthy *telemetry.Gauge
	mVerdict   *telemetry.Gauge
	mCohort    *telemetry.Gauge
	cAlerts    *telemetry.Counter
	cUpdates   *telemetry.Counter
	cRounds    *telemetry.Counter
}

// Alert is one active (client, rule) or (run, rule) threshold crossing.
// Client is -1 for run-level rules.
type Alert struct {
	Round  int
	Client int
	Rule   string
	Value  float64
}

// New builds a Monitor. Pass the result through the stack even when
// monitoring is off — a nil *Monitor is inert.
func New(cfg Config) *Monitor {
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	return &Monitor{
		events:     cfg.Events,
		rules:      rules,
		verdict:    "ok",
		runLoss:    math.NaN(),
		prevLoss:   math.NaN(),
		ring:       make([]float64, DefaultWindow),
		mScoreMin:  reg.Gauge("rfl_health_score_min", "lowest client health score in the last round"),
		mScoreMean: reg.Gauge("rfl_health_score_mean", "mean client health score in the last round"),
		mUnhealthy: reg.Gauge("rfl_health_unhealthy_clients", "clients scoring below the unhealthy threshold in the last round"),
		mVerdict:   reg.Gauge("rfl_health_round_verdict", "last round verdict: 0 ok, 1 warn, 2 critical"),
		mCohort:    reg.Gauge("rfl_health_cohort", "clients scored in the last round"),
		cAlerts:    reg.Counter("rfl_health_alerts_total", "health alert events emitted (edge-triggered)"),
		cUpdates:   reg.Counter("rfl_health_updates_total", "client updates observed by the health monitor"),
		cRounds:    reg.Counter("rfl_health_rounds_total", "rounds scored by the health monitor"),
	}
}

// slot returns the client's state, allocating it on first sight. Called
// under mu.
func (m *Monitor) slot(client int) *clientState {
	if client < 0 {
		return nil
	}
	for client >= len(m.slots) {
		m.slots = append(m.slots, nil)
	}
	st := m.slots[client]
	if st == nil {
		st = &clientState{id: client, score: 1, cos: math.NaN(),
			normZ: math.NaN(), lossZ: math.NaN(), drift: math.NaN(), driftZ: math.NaN()}
		m.slots[client] = st
		m.observed = append(m.observed, client)
	}
	return st
}

// BeginRound starts a scoring round: cohort scratch and the direction
// accumulator reset, prior per-client history stays.
func (m *Monitor) BeginRound(round int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.round = round
	m.started = true
	for _, st := range m.cohort {
		st.cohort = false
	}
	m.cohort = m.cohort[:0]
	for i := range m.dir {
		m.dir[i] = 0
	}
	m.dirN = 0
	m.sealed = false
}

// AccumDirection adds one cohort update's normalized direction
// (params − global)/‖·‖ into the round's direction sum. Call it for every
// valid update before the first ObserveUpdate of the round; updates with
// non-finite or zero norm are skipped.
func (m *Monitor) AccumDirection(params, global []float64) {
	if m == nil || len(params) != len(global) || len(params) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		return // direction already consumed by ObserveUpdate this round
	}
	if len(m.dir) != len(params) {
		m.dir = make([]float64, len(params))
		for i := range m.dir {
			m.dir[i] = 0
		}
	}
	norm := math.Sqrt(tensor.SquaredDistanceFloats(params, global))
	if norm <= 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return
	}
	inv := 1 / norm
	for i := range m.dir {
		m.dir[i] += (params[i] - global[i]) * inv
	}
	m.dirN++
}

// ObserveUpdate records one cohort member's round contribution: its
// reported training loss and its update (params vs the broadcast global).
// The first call of a round seals the direction sum.
func (m *Monitor) ObserveUpdate(client int, loss float64, params, global []float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.slot(client)
	if st == nil {
		return
	}
	if !m.sealed {
		m.sealed = true
		if m.dirN > 0 {
			m.gS = tensor.DotFloats(global, m.dir)
			m.s2 = tensor.DotFloats(m.dir, m.dir)
		}
	}
	norm := math.NaN()
	ds := math.NaN()
	if len(params) == len(global) && len(params) > 0 {
		norm = math.Sqrt(tensor.SquaredDistanceFloats(params, global))
		if m.dirN > 0 {
			ds = tensor.DotFloats(params, m.dir) - m.gS
		}
	}

	// Loss EWMA + variance (decay 0.3 toward the newest observation).
	const alpha = 0.3
	if isFinite(loss) {
		if !st.seen {
			st.lossEWMA, st.lossVar, st.seen = loss, 0, true
		} else {
			d := loss - st.lossEWMA
			st.lossEWMA += alpha * d
			st.lossVar = (1 - alpha) * (st.lossVar + alpha*d*d)
		}
	}
	st.loss = loss
	st.norm = norm
	st.normZ = math.NaN()
	st.lossZ = math.NaN()
	st.driftZ = math.NaN()
	st.cos = m.looCosLocked(norm, ds)
	st.rounds++
	st.lastRound = m.round
	st.evicted = false
	if !st.cohort {
		st.cohort = true
		m.cohort = append(m.cohort, st)
	}

	// Push the norm into the cross-round ring feeding the robust z-score.
	if isFinite(norm) {
		m.ring[m.ringPos] = norm
		m.ringPos = (m.ringPos + 1) % len(m.ring)
		if m.ringLen < len(m.ring) {
			m.ringLen++
		}
	}
	m.cUpdates.Inc()
}

// looCosLocked is the leave-one-out cosine of an update direction against
// the rest of the cohort's direction sum, from sealed scalars only:
// with u = Δ/‖Δ‖ and S the sum of all normalized directions,
// cos(Δ, S−u) = (Δ·S − ‖Δ‖) / (‖Δ‖·‖S−u‖) and
// ‖S−u‖² = ‖S‖² − 2·(Δ·S)/‖Δ‖ + 1.
func (m *Monitor) looCosLocked(norm, ds float64) float64 {
	if m.dirN < 2 || !isFinite(norm) || norm <= 0 || !isFinite(ds) {
		return math.NaN()
	}
	rest2 := m.s2 - 2*ds/norm + 1
	if rest2 <= 1e-12 {
		return math.NaN()
	}
	return (ds - norm) / (norm * math.Sqrt(rest2))
}

// ObserveFold credits an async straggler whose parked update folded into
// this round's aggregate after age rounds.
func (m *Monitor) ObserveFold(client, age int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.slot(client)
	if st == nil {
		return
	}
	st.folds++
	st.lastFoldAge = age
	st.lastRound = m.round
}

// ObserveDrift records a client's MMD-vs-cohort drift, √MMD²(δ_k, δ̄^{-k})
// read off the δ table after the round's second synchronization.
func (m *Monitor) ObserveDrift(client int, drift float64) {
	if m == nil || !isFinite(drift) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.slot(client)
	if st == nil {
		return
	}
	st.drift = drift
	st.hasDrift = true
}

// ObserveEvict records a fault eviction; the client's score halves until
// it contributes again.
func (m *Monitor) ObserveEvict(client int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.slot(client)
	if st == nil {
		return
	}
	st.evictions++
	st.evicted = true
	st.score *= weightEvict
}

// EndRound finishes the scoring round: robust statistics over the cohort,
// per-client scores, alert-rule evaluation, metrics, and the round verdict
// ("ok", "warn", or "critical"), which it returns.
func (m *Monitor) EndRound(roundLoss float64) string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prevLoss = m.runLoss
	m.runLoss = roundLoss
	if isFinite(roundLoss) && isFinite(m.prevLoss) && roundLoss > m.prevLoss {
		m.lossRise++
	} else if isFinite(roundLoss) {
		m.lossRise = 0
	}

	// Robust centers: update norms over the cross-round ring, losses and
	// drifts over the current cohort.
	normMed, normSigma := m.medMADLocked(m.ring[:m.ringLen])
	lossMed, lossSigma := math.NaN(), math.NaN()
	driftMed, driftSigma := math.NaN(), math.NaN()
	if len(m.cohort) >= 3 {
		m.scratch = m.scratch[:0]
		for _, st := range m.cohort {
			if isFinite(st.loss) {
				m.scratch = append(m.scratch, st.loss)
			}
		}
		lossMed, lossSigma = m.medMADLocked(m.scratch)
		m.scratch = m.scratch[:0]
		for _, st := range m.cohort {
			if st.hasDrift {
				m.scratch = append(m.scratch, st.drift)
			}
		}
		if len(m.scratch) >= 3 {
			driftMed, driftSigma = m.medMADLocked(m.scratch)
		}
	}

	scoreMin, scoreSum := math.NaN(), 0.0
	unhealthy := 0
	for _, st := range m.cohort {
		if isFinite(st.norm) && normSigma > 0 {
			st.normZ = (st.norm - normMed) / normSigma
		}
		if isFinite(st.loss) && lossSigma > 0 {
			st.lossZ = (st.loss - lossMed) / lossSigma
		}
		if st.hasDrift && driftSigma > 0 {
			st.driftZ = (st.drift - driftMed) / driftSigma
		}
		st.score = m.scoreLocked(st)
		scoreSum += st.score
		if math.IsNaN(scoreMin) || st.score < scoreMin {
			scoreMin = st.score
		}
		if st.score < DefaultUnhealthyBelow {
			unhealthy++
		}
	}

	// Verdict.
	frac := 0.0
	if len(m.cohort) > 0 {
		frac = float64(unhealthy) / float64(len(m.cohort))
	}
	verdictCode := 0.0
	switch {
	case !isFinite(roundLoss) || (len(m.cohort) >= 2 && frac > 0.5):
		m.verdict, verdictCode = "critical", 2
	case unhealthy > 0 || m.lossRise >= 3:
		m.verdict, verdictCode = "warn", 1
	default:
		m.verdict, verdictCode = "ok", 0
	}

	m.evalRulesLocked(frac, scoreMin)

	m.mCohort.Set(float64(len(m.cohort)))
	m.mUnhealthy.Set(float64(unhealthy))
	m.mVerdict.Set(verdictCode)
	if len(m.cohort) > 0 {
		m.mScoreMin.Set(scoreMin)
		m.mScoreMean.Set(scoreSum / float64(len(m.cohort)))
	}
	m.cRounds.Inc()
	return m.verdict
}

// scoreLocked folds a cohort member's round signals into its health score.
func (m *Monitor) scoreLocked(st *clientState) float64 {
	pen := weightNormZ*zPenalty(math.Abs(st.normZ)) +
		weightCos*cosPenalty(st.cos) +
		weightLossZ*zPenalty(st.lossZ) + // high loss only: low is healthy
		weightDriftZ*zPenalty(st.driftZ)
	if !isFinite(st.loss) {
		pen += 1 // a NaN/Inf training loss is maximally unhealthy on its own
	}
	return clamp01(1 - pen)
}

// zPenalty maps a (possibly NaN) robust z-score to [0, 1]: free below
// zPenaltyStart σ, saturated at zPenaltyFull σ.
func zPenalty(z float64) float64 {
	if !isFinite(z) {
		return 0
	}
	return clamp01((z - zPenaltyStart) / (zPenaltyFull - zPenaltyStart))
}

// cosPenalty maps a leave-one-out cosine to [0, 1]: free above cosStart,
// saturated at cosFull and below.
func cosPenalty(cos float64) float64 {
	if !isFinite(cos) {
		return 0
	}
	return clamp01((cosStart - cos) / (cosStart - cosFull))
}

// medMADLocked computes the median and the MAD-derived robust σ of vals,
// sorting a reused scratch buffer in place. σ is floored at 5% of the
// median so near-constant samples do not turn round-off into huge z's.
func (m *Monitor) medMADLocked(vals []float64) (med, sigma float64) {
	n := len(vals)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	need := 2 * n
	if cap(m.scratch) < need {
		m.scratch = make([]float64, 0, need)
	}
	s := m.scratch[:n]
	copy(s, vals)
	insertionSort(s)
	med = quantSorted(s, 0.5)
	dev := m.scratch[n : 2*n]
	for i, v := range vals {
		dev[i] = math.Abs(v - med)
	}
	insertionSort(dev)
	mad := quantSorted(dev, 0.5)
	sigma = madScale * mad
	if floor := 0.05 * math.Abs(med); sigma < floor {
		sigma = floor
	}
	if sigma < 1e-12 {
		sigma = 1e-12
	}
	m.scratch = m.scratch[:0]
	return med, sigma
}

func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func quantSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(q * float64(len(s)-1))
	return s[i]
}

// Score returns the client's current effective health score: the last
// computed score minus a staleness penalty that grows with rounds since
// the client last contributed. NaN for a never-observed client.
func (m *Monitor) Score(client int) float64 {
	if m == nil {
		return math.NaN()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if client < 0 || client >= len(m.slots) || m.slots[client] == nil {
		return math.NaN()
	}
	return m.effectiveScoreLocked(m.slots[client])
}

// effectiveScoreLocked applies the lazy staleness decay: two idle rounds
// are free, then the penalty ramps to weightStale over eight more.
func (m *Monitor) effectiveScoreLocked(st *clientState) float64 {
	stale := m.round - st.lastRound
	return clamp01(st.score - weightStale*clamp01((float64(stale)-2)/8))
}

// CohortScores calls f for every client scored in the last round.
func (m *Monitor) CohortScores(f func(client int, score float64)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.cohort {
		f(st.id, m.effectiveScoreLocked(st))
	}
}

// UnhealthyCount is the number of last-round cohort members scoring below
// the unhealthy threshold.
func (m *Monitor) UnhealthyCount() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.cohort {
		if m.effectiveScoreLocked(st) < DefaultUnhealthyBelow {
			n++
		}
	}
	return n
}

// LastVerdict is the verdict of the last scored round ("ok" before any).
func (m *Monitor) LastVerdict() string {
	if m == nil {
		return ""
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verdict
}

// ObserveSelf is the single-client convenience used by flclient's
// self-monitor: one BeginRound/ObserveUpdate/EndRound cycle per round.
// With a cohort of one the cosine signal is inert, but the norm z-score
// runs against the client's own cross-round history.
func (m *Monitor) ObserveSelf(round, client int, loss float64, params, global []float64) {
	if m == nil {
		return
	}
	m.BeginRound(round)
	m.ObserveUpdate(client, loss, params, global)
	m.EndRound(loss)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
