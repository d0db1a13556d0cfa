package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/health"
	"repro/internal/telemetry"
)

// TestHealthFlagsByzantineClients is the chaos anomaly gate: a full
// rFedAvg+ session over pipes with one sign-flipping and one update-scaling
// client (wire-level FaultConn tampering — losses and δ maps stay honest,
// exactly what a real attacker would report). The monitor must flag both
// attackers and fire alerts for them, while every honest client — non-IID
// at similarity 0, so their updates genuinely diverge — stays healthy: zero
// false positives.
func TestHealthFlagsByzantineClients(t *testing.T) {
	const (
		clients  = 6
		rounds   = 6
		flipper  = 1
		scaler   = 4
		scaleFac = 10
	)
	fx := newFixture(t, clients)

	var events bytes.Buffer
	mon := health.New(health.Config{
		Registry: telemetry.NewRegistry(),
		Ledger:   telemetry.NewRunLedger(&events),
	})

	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Health:        mon,
	}
	plans := map[int]FaultPlan{
		flipper: {Seed: 1, SignFlipUpdate: true},
		scaler:  {Seed: 2, ScaleUpdate: scaleFac},
	}
	if _, err := ServePipes(scfg, fx.shards, fx.client, plans); err != nil {
		t.Fatalf("serve: %v", err)
	}

	if b, err := json.MarshalIndent(mon.Snapshot(0), "", " "); err == nil {
		t.Logf("snapshot:\n%s", b)
	}

	// The attackers must have been flagged — an alert records the moment
	// their score crossed below the threshold. (Their *final* score may
	// recover: once local training converges, 10×(w−g) of a near-zero
	// honest delta is no longer anomalous.)
	alerted := map[int]float64{}
	for _, line := range strings.Split(events.String(), "\n") {
		if line == "" || !strings.Contains(line, "health_alert") {
			continue
		}
		var e struct {
			Event  string `json:"event"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		var (
			id   int
			rule string
			val  float64
		)
		if _, err := fmt.Sscanf(e.Detail, "client %d violated %s (value %g)", &id, &rule, &val); err == nil {
			alerted[id] = val
		}
	}
	for _, id := range []int{flipper, scaler} {
		val, ok := alerted[id]
		if !ok {
			t.Errorf("attacker %d never alerted\nevents:\n%s", id, events.String())
		} else if val >= 0.5 {
			t.Errorf("attacker %d alert value %g not below threshold", id, val)
		}
	}

	// Zero false positives: honest clients never alert and end healthy,
	// even though their non-IID updates genuinely diverge.
	for id := range alerted {
		if id != flipper && id != scaler {
			t.Errorf("alert fired for honest client %d\nevents:\n%s", id, events.String())
		}
	}
	for id := 0; id < clients; id++ {
		if id == flipper || id == scaler {
			continue
		}
		if s := mon.Score(id); math.IsNaN(s) || s < 0.5 {
			t.Errorf("false positive: honest client %d scored %v", id, s)
		}
	}
}
