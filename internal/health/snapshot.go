package health

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// DefaultSnapshotTop caps the per-client list a snapshot carries: the
// worst-scoring clients first, so a dashboard sees the interesting tail
// without shipping 100k entries.
const DefaultSnapshotTop = 32

// JSONFloat is a float64 that marshals NaN and ±Inf as null instead of
// making encoding/json error out — unknown signals stay visibly unknown
// in the snapshot.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// ClientSnapshot is one client's entry in a Snapshot, worst score first.
type ClientSnapshot struct {
	ID        int       `json:"id"`
	Score     JSONFloat `json:"score"`
	LossEWMA  JSONFloat `json:"loss_ewma"`
	LossVar   JSONFloat `json:"loss_var"`
	Norm      JSONFloat `json:"norm"`
	NormZ     JSONFloat `json:"norm_z"`
	Cos       JSONFloat `json:"cos"`
	LossZ     JSONFloat `json:"loss_z"`
	Drift     JSONFloat `json:"drift"`
	DriftZ    JSONFloat `json:"drift_z"`
	Rounds    int       `json:"rounds"`
	Folds     int       `json:"folds"`
	Evictions int       `json:"evictions"`
	StaleAge  int       `json:"stale_age"`
	Alerts    []string  `json:"alerts,omitempty"`
}

// AlertSnapshot is one active alert in a Snapshot.
type AlertSnapshot struct {
	Round  int       `json:"round"`
	Client int       `json:"client"` // -1 for run-level rules
	Rule   string    `json:"rule"`
	Value  JSONFloat `json:"value"`
}

// Snapshot is the live health view served at /debug/fl/health.
type Snapshot struct {
	Round     int              `json:"round"`
	Verdict   string           `json:"verdict"`
	Cohort    int              `json:"cohort"`
	Observed  int              `json:"observed"`
	RunLoss   JSONFloat        `json:"run_loss"`
	ScoreMin  JSONFloat        `json:"score_min"`
	ScoreMean JSONFloat        `json:"score_mean"`
	Unhealthy int              `json:"unhealthy"`
	Clients   []ClientSnapshot `json:"clients"`
	Alerts    []AlertSnapshot  `json:"alerts"`
}

// Snapshot captures the current health state: the topN worst-scoring
// observed clients (all of them when topN <= 0), plus every active alert.
// It allocates freely — snapshots are the scrape path, not the hot path.
func (m *Monitor) Snapshot(topN int) Snapshot {
	if m == nil {
		return Snapshot{Verdict: "off"}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		Round:    m.round,
		Verdict:  m.verdict,
		Cohort:   len(m.cohort),
		Observed: len(m.observed),
		RunLoss:  JSONFloat(m.runLoss),
		Clients:  make([]ClientSnapshot, 0, len(m.observed)),
		Alerts:   []AlertSnapshot{},
	}
	scoreMin, scoreSum, scored := math.NaN(), 0.0, 0
	for _, id := range m.observed {
		st := m.slots[id]
		score := m.effectiveScoreLocked(st)
		if math.IsNaN(scoreMin) || score < scoreMin {
			scoreMin = score
		}
		scoreSum += score
		scored++
		if score < DefaultUnhealthyBelow {
			snap.Unhealthy++
		}
		cs := ClientSnapshot{
			ID:        st.id,
			Score:     JSONFloat(score),
			LossEWMA:  JSONFloat(st.lossEWMA),
			LossVar:   JSONFloat(st.lossVar),
			Norm:      JSONFloat(st.norm),
			NormZ:     JSONFloat(st.normZ),
			Cos:       JSONFloat(st.cos),
			LossZ:     JSONFloat(st.lossZ),
			Drift:     JSONFloat(st.drift),
			DriftZ:    JSONFloat(st.driftZ),
			Rounds:    st.rounds,
			Folds:     st.folds,
			Evictions: st.evictions,
			StaleAge:  m.round - st.lastRound,
		}
		for ri, r := range m.rules {
			if st.alerts&(uint64(1)<<uint(ri&63)) != 0 {
				cs.Alerts = append(cs.Alerts, r.src)
			}
		}
		snap.Clients = append(snap.Clients, cs)
	}
	if scored > 0 {
		snap.ScoreMin = JSONFloat(scoreMin)
		snap.ScoreMean = JSONFloat(scoreSum / float64(scored))
	} else {
		snap.ScoreMin, snap.ScoreMean = JSONFloat(math.NaN()), JSONFloat(math.NaN())
	}
	sort.Slice(snap.Clients, func(a, b int) bool {
		sa, sb := float64(snap.Clients[a].Score), float64(snap.Clients[b].Score)
		if sa != sb {
			return sa < sb
		}
		return snap.Clients[a].ID < snap.Clients[b].ID
	})
	if topN > 0 && len(snap.Clients) > topN {
		snap.Clients = snap.Clients[:topN]
	}
	for _, a := range m.active {
		snap.Alerts = append(snap.Alerts, AlertSnapshot{
			Round: a.Round, Client: a.Client, Rule: a.Rule, Value: JSONFloat(a.Value),
		})
	}
	return snap
}

// Handler serves the JSON snapshot; ?top=N overrides the client-list cap
// (0 for all clients).
func (m *Monitor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		top := DefaultSnapshotTop
		if v := r.URL.Query().Get("top"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				top = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Snapshot(top))
	})
}
