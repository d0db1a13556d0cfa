package health

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func newTestMonitor() *Monitor {
	return New(Config{Registry: telemetry.NewRegistry()})
}

// runRound feeds one synthetic round: global at origin, each client's
// update given by (scale, dir) where dir flips the shared direction.
func runRound(m *Monitor, round, d int, rng *rand.Rand, scales []float64, flip []bool, losses []float64) {
	global := make([]float64, d)
	updates := make([][]float64, len(scales))
	for i := range updates {
		u := make([]float64, d)
		for j := range u {
			// A shared descent direction plus client-specific noise.
			base := 1.0 + 0.1*float64(j%7)
			u[j] = base + rng.NormFloat64()*0.3
		}
		fac := scales[i]
		if flip[i] {
			fac = -fac
		}
		for j := range u {
			u[j] = global[j] + fac*(u[j]-0) // delta relative to the origin
		}
		updates[i] = u
	}
	m.BeginRound(round)
	for _, u := range updates {
		m.AccumDirection(u, global)
	}
	for i, u := range updates {
		m.ObserveUpdate(i, losses[i], u, global)
	}
	m.EndRound(meanOf(losses))
}

func meanOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.BeginRound(1)
	m.AccumDirection([]float64{1}, []float64{0})
	m.ObserveUpdate(0, 1, []float64{1}, []float64{0})
	m.ObserveFold(0, 1)
	m.ObserveDrift(0, 0.5)
	m.ObserveEvict(0)
	m.ObserveSelf(1, 0, 1, []float64{1}, []float64{0})
	if v := m.EndRound(1); v != "" {
		t.Fatalf("nil EndRound = %q", v)
	}
	if !math.IsNaN(m.Score(0)) {
		t.Fatal("nil Score must be NaN")
	}
	if m.UnhealthyCount() != 0 || m.LastVerdict() != "" {
		t.Fatal("nil accessors must be zero-valued")
	}
	m.CohortScores(func(int, float64) { t.Fatal("nil CohortScores called back") })
	if s := m.Snapshot(0); s.Verdict != "off" {
		t.Fatalf("nil Snapshot verdict = %q", s.Verdict)
	}
}

func TestSignFlipAndScaleFlagged(t *testing.T) {
	m := newTestMonitor()
	rng := rand.New(rand.NewSource(7))
	const n, d = 8, 32
	scales := make([]float64, n)
	flip := make([]bool, n)
	losses := make([]float64, n)
	for i := range scales {
		scales[i] = 1
		losses[i] = 1.0 + 0.05*float64(i)
	}
	flip[2] = true // sign-flip attacker
	scales[5] = 12 // scaled-update attacker
	for r := 1; r <= 5; r++ {
		runRound(m, r, d, rng, scales, flip, losses)
	}
	if s := m.Score(2); !(s < DefaultUnhealthyBelow) {
		t.Fatalf("sign-flip client score = %v, want < %v", s, DefaultUnhealthyBelow)
	}
	if s := m.Score(5); !(s < DefaultUnhealthyBelow) {
		t.Fatalf("scaled client score = %v, want < %v", s, DefaultUnhealthyBelow)
	}
	for _, i := range []int{0, 1, 3, 4, 6, 7} {
		if s := m.Score(i); !(s >= DefaultUnhealthyBelow) {
			t.Fatalf("honest client %d score = %v, want >= %v", i, s, DefaultUnhealthyBelow)
		}
	}
	if got := m.UnhealthyCount(); got != 2 {
		t.Fatalf("UnhealthyCount = %d, want 2", got)
	}
	if v := m.LastVerdict(); v != "warn" {
		t.Fatalf("verdict = %q, want warn", v)
	}
}

// TestAlertEdgeTriggered feeds clients that flip their update direction in
// chosen rounds (one row per round, one entry per cohort member, client ID =
// index; a shorter row leaves the last clients out of the cohort). An alert
// event fires on a rising edge only, and every round the snapshot's active
// alerts, UnhealthyCount and the unhealthy gauge read the same decision.
func TestAlertEdgeTriggered(t *testing.T) {
	const o, x = false, true
	for _, tc := range []struct {
		name   string
		rounds [][]bool
		client int // the one client that alerts
		events int
	}{
		{"stays unhealthy", [][]bool{{o, x, o, o}, {o, x, o, o}, {o, x, o, o}, {o, x, o, o}}, 1, 1},
		// Client 3 crosses, stays, recovers, crosses again and leaves the
		// cohort while alerting.
		{"recrosses then leaves", [][]bool{{o, o, o, o}, {o, o, o, x}, {o, o, o, x}, {o, o, o, o}, {o, o, o, x}, {o, o, o}}, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			reg := telemetry.NewRegistry()
			m := New(Config{Registry: reg, Ledger: telemetry.NewRunLedger(&buf)})
			gauge := reg.Gauge("rfl_health_unhealthy_clients", "")
			rng := rand.New(rand.NewSource(3))
			for r, flip := range tc.rounds {
				ones := make([]float64, len(flip))
				for i := range ones {
					ones[i] = 1
				}
				runRound(m, r+1, 16, rng, ones, flip, ones)
				flipped := 0
				for _, f := range flip {
					if f {
						flipped++
					}
				}
				alerts := m.Snapshot(0).Alerts
				if n := m.UnhealthyCount(); len(alerts) != flipped || n != flipped || gauge.Value() != float64(flipped) {
					t.Fatalf("round %d: %d flipped, %d active alerts, UnhealthyCount %d, gauge %v",
						r+1, flipped, len(alerts), n, gauge.Value())
				}
				for _, a := range alerts {
					if !flip[a.Client] || a.Round != r+1 || a.Rule != "score<0.5" {
						t.Fatalf("round %d: alert %+v for flips %v", r+1, a, flip)
					}
				}
			}
			all := strings.Count(buf.String(), `"health_alert"`)
			own := strings.Count(buf.String(), fmt.Sprintf("client %d violated score<0.5", tc.client))
			if all != tc.events || own != tc.events {
				t.Fatalf("health_alert emitted %d times, %d for client %d, want %d (edge-triggered)\n%s",
					all, own, tc.client, tc.events, buf.String())
			}
		})
	}
}

// The snapshot's unhealthy count is the cohort decision: after a round that
// leaves the alerting client out, it reads UnhealthyCount (0), not the
// alerting client's staleness-decayed score (still below 0.5).
func TestSnapshotUnhealthyIsCohortDecision(t *testing.T) {
	const o, x = false, true
	m := New(Config{Registry: telemetry.NewRegistry()})
	rng := rand.New(rand.NewSource(3))
	for r, flip := range [][]bool{{o, o, o, x}, {o, o, o}} {
		ones := []float64{1, 1, 1, 1}[:len(flip)]
		runRound(m, r+1, 16, rng, ones, flip, ones)
		if got, want := m.Snapshot(0).Unhealthy, m.UnhealthyCount(); got != want || want != len(flip)-3 {
			t.Fatalf("round %d: snapshot unhealthy %d, UnhealthyCount %d, want %d", r+1, got, want, len(flip)-3)
		}
	}
}

func TestStalenessDecaysScore(t *testing.T) {
	m := newTestMonitor()
	rng := rand.New(rand.NewSource(5))
	scales := []float64{1, 1, 1}
	flip := []bool{false, false, false}
	losses := []float64{1, 1, 1}
	runRound(m, 1, 16, rng, scales, flip, losses)
	fresh := m.Score(0)
	// Ten idle rounds: only clients 1 and 2 keep participating.
	for r := 2; r <= 12; r++ {
		m.BeginRound(r)
		g := make([]float64, 16)
		u := make([]float64, 16)
		for j := range u {
			u[j] = 1
		}
		m.AccumDirection(u, g)
		m.ObserveUpdate(1, 1, u, g)
		m.ObserveUpdate(2, 1, u, g)
		m.EndRound(1)
	}
	stale := m.Score(0)
	if !(stale < fresh) {
		t.Fatalf("stale score %v not below fresh score %v", stale, fresh)
	}
}

func TestEvictionHalvesScore(t *testing.T) {
	m := newTestMonitor()
	rng := rand.New(rand.NewSource(9))
	runRound(m, 1, 16, rng, []float64{1, 1, 1}, []bool{false, false, false}, []float64{1, 1, 1})
	before := m.Score(1)
	m.ObserveEvict(1)
	after := m.Score(1)
	if !(after < before) {
		t.Fatalf("eviction did not lower score: %v -> %v", before, after)
	}
}

func TestNaNLossIsCritical(t *testing.T) {
	m := newTestMonitor()
	m.BeginRound(1)
	g := make([]float64, 8)
	u := make([]float64, 8)
	u[0] = 1
	m.AccumDirection(u, g)
	m.ObserveUpdate(0, math.NaN(), u, g)
	if v := m.EndRound(math.NaN()); v != "critical" {
		t.Fatalf("verdict with NaN run loss = %q, want critical", v)
	}
	if s := m.Score(0); !(s <= 0.01) {
		t.Fatalf("NaN-loss client score = %v, want ~0", s)
	}
}

func TestSnapshotJSONAndHandler(t *testing.T) {
	m := newTestMonitor()
	rng := rand.New(rand.NewSource(11))
	scales := []float64{1, 1, 1, 1}
	flip := []bool{false, false, false, true}
	losses := []float64{1, 1, 1, 1}
	for r := 1; r <= 3; r++ {
		runRound(m, r, 16, rng, scales, flip, losses)
	}
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fl/health?top=2", nil))
	var snap struct {
		Round   int    `json:"round"`
		Verdict string `json:"verdict"`
		Clients []struct {
			ID    int      `json:"id"`
			Score *float64 `json:"score"`
		} `json:"clients"`
		Alerts []struct {
			Rule string `json:"rule"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Round != 3 || len(snap.Clients) != 2 {
		t.Fatalf("snapshot round/top wrong: %+v", snap)
	}
	// Worst first: the flipped client leads.
	if snap.Clients[0].ID != 3 || snap.Clients[0].Score == nil || *snap.Clients[0].Score >= 0.5 {
		t.Fatalf("worst client not first: %+v", snap.Clients)
	}
	if len(snap.Alerts) == 0 {
		t.Fatal("firing alert missing from snapshot")
	}
}

// TestObserveHotPathAllocs proves the per-round observation path is
// allocation-free at steady state: after a warm-up that sizes the scratch
// buffers and allocates every client's slot, a full
// BeginRound/AccumDirection/ObserveUpdate/ObserveFold/ObserveDrift/EndRound
// cycle performs zero allocations.
func TestObserveHotPathAllocs(t *testing.T) {
	m := newTestMonitor()
	const n, d = 16, 64
	global := make([]float64, d)
	updates := make([][]float64, n)
	rng := rand.New(rand.NewSource(1))
	for i := range updates {
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.NormFloat64()
		}
		updates[i] = u
	}
	round := 0
	cycle := func() {
		round++
		m.BeginRound(round)
		for _, u := range updates {
			m.AccumDirection(u, global)
		}
		for i, u := range updates {
			m.ObserveUpdate(i, 1.0+float64(i)*0.01, u, global)
		}
		m.ObserveFold(3, 2)
		m.ObserveDrift(4, 0.25)
		m.EndRound(1.0)
	}
	// Warm up: allocate slots, direction buffer, ring, scratch; the ring
	// holds 256 norms, so fill it completely to reach steady state.
	for i := 0; i < 40; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("health hot path allocates: %v allocs/op", allocs)
	}
	_ = m.Score(5)
}
