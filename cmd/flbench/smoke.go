package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/traceview"
	"repro/internal/transport"
)

// smokeSeries are the core series a scrape of a live rFedAvg+ session must
// expose. Counters and histograms appear as soon as they are registered, so
// presence proves the whole instrumentation path is wired, not that every
// fault type occurred during the two smoke rounds.
var smokeSeries = []string{
	`rfl_rounds_completed_total 2`,
	`rfl_round_retries_total`,
	`rfl_evictions_total`,
	`rfl_rejoins_total`,
	`rfl_round_seconds_bucket`,
	`rfl_phase_seconds_bucket{phase="join"`,
	`rfl_phase_seconds_bucket{phase="broadcast"`,
	`rfl_phase_seconds_bucket{phase="gather"`,
	`rfl_phase_seconds_bucket{phase="delta_sync"`,
	`rfl_bytes_sent_total{algo="rfedavg+"}`,
	`rfl_bytes_received_total{algo="rfedavg+"}`,
	`rfl_model_elided_total`,
	`rfl_delta_staleness_age_bucket`,
	`rfl_delta_stale_rows`,
}

// codecSeries must additionally appear when the session negotiates the int8
// uplink codec.
var codecSeries = []string{
	`rfl_codec_payload_bytes_total{dir="recv",scheme="q8"}`,
	`rfl_codec_payload_bytes_total{dir="sent",scheme="dense"}`,
}

// telemetrySmoke runs a 3-client, 2-round rFedAvg+ session over in-process
// pipes against a fresh registry served on a loopback listener, then
// scrapes /metrics like a Prometheus agent would and checks every core
// series is present. It also probes /healthz and /debug/pprof/.
func telemetrySmoke(w io.Writer) error {
	reg := telemetry.NewRegistry()
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(w, "scrape target: http://%s/metrics\n", srv.Addr())

	if err := runSmokeSession(reg, transport.AlgoRFedAvgPlus, transport.CodecPolicy{}, 3, nil); err != nil {
		return err
	}

	body, err := get(srv.Addr(), "/metrics")
	if err != nil {
		return err
	}
	var missing []string
	for _, s := range smokeSeries {
		if !strings.Contains(body, s) {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("scrape is missing %d core series:\n  %s\n--- scrape ---\n%s",
			len(missing), strings.Join(missing, "\n  "), body)
	}
	if health, err := get(srv.Addr(), "/healthz"); err != nil || !strings.Contains(health, "ok") {
		return fmt.Errorf("/healthz not ok: %q, %v", health, err)
	}
	if _, err := get(srv.Addr(), "/debug/pprof/"); err != nil {
		return fmt.Errorf("/debug/pprof/: %w", err)
	}
	fmt.Fprintf(w, "all %d core series present; /healthz and /debug/pprof/ responding\n", len(smokeSeries))
	if err := codecSmoke(w, reg); err != nil {
		return err
	}
	return downlinkSmoke(w)
}

// downlinkSmoke gates Table III's downlink claim on the live wire: from
// round 1 on, when every client holds the model the second synchronization
// delivered, an rFedAvg+ round may send at most one frame header and one
// d-float target per client more than a FedAvg round — O(dN), no second
// model.
func downlinkSmoke(w io.Writer) error {
	const clients = 4
	down := func(algo transport.Algorithm) ([]traceview.LedgerLine, error) {
		var buf bytes.Buffer
		if err := runSmokeSession(telemetry.NewRegistry(), algo, transport.CodecPolicy{}, clients,
			telemetry.NewRunLedger(&buf)); err != nil {
			return nil, fmt.Errorf("%s session: %w", algo, err)
		}
		return traceview.ReadLedger(&buf)
	}
	plus, err := down(transport.AlgoRFedAvgPlus)
	if err != nil {
		return err
	}
	avg, err := down(transport.AlgoFedAvg)
	if err != nil {
		return err
	}
	if len(plus) != smokeRounds || len(avg) != smokeRounds {
		return fmt.Errorf("ledger lines: rfedavg+ %d, fedavg %d, want %d each", len(plus), len(avg), smokeRounds)
	}
	bound := int64(clients * ((&transport.Message{}).EncodedSize() + 8*smokeFeatureDim))
	for r := 1; r < smokeRounds; r++ {
		if extra := plus[r].DownBytes - avg[r].DownBytes; extra > bound {
			return fmt.Errorf("round %d: rfedavg+ sends %d B more than fedavg, bound is %d B (N·(header+8d))", r, extra, bound)
		}
	}
	fmt.Fprintf(w, "downlink smoke: rfedavg+ round 1 sends %d B over fedavg's %d B (bound %d B)\n",
		plus[1].DownBytes-avg[1].DownBytes, avg[1].DownBytes, bound)
	return nil
}

// codecSmoke reruns the session with the int8 uplink codec on a second
// registry and gates on the compression contract: the codec byte series
// appear in a scrape, the server's received bytes shrink at least 4× against
// the dense run, and the process-wide reconstruction-error histogram
// engaged.
func codecSmoke(w io.Writer, dense *telemetry.Registry) error {
	reg := telemetry.NewRegistry()
	srv, err := telemetry.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		return err
	}
	defer srv.Close()

	if err := runSmokeSession(reg, transport.AlgoRFedAvgPlus, transport.CodecPolicy{
		Update: compress.SchemeInt8,
		Delta:  compress.SchemeInt8,
	}, 3, nil); err != nil {
		return fmt.Errorf("codec session: %w", err)
	}

	body, err := get(srv.Addr(), "/metrics")
	if err != nil {
		return err
	}
	var missing []string
	for _, s := range codecSeries {
		if !strings.Contains(body, s) {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("codec scrape is missing %d series:\n  %s\n--- scrape ---\n%s",
			len(missing), strings.Join(missing, "\n  "), body)
	}

	const recvSeries = `rfl_bytes_received_total{algo="rfedavg+"}`
	denseUp := dense.Counter(recvSeries, "").Value()
	q8Up := reg.Counter(recvSeries, "").Value()
	if denseUp == 0 || q8Up == 0 {
		return fmt.Errorf("uplink byte counters empty: dense %d, q8 %d", denseUp, q8Up)
	}
	if q8Up*4 > denseUp {
		return fmt.Errorf("q8 uplink %d B is not ≥4× below dense %d B", q8Up, denseUp)
	}
	if n := compress.ReconErrCount(compress.SchemeInt8); n == 0 {
		return fmt.Errorf("no q8 reconstruction-error observations recorded")
	}
	fmt.Fprintf(w, "codec smoke: q8 uplink %d B vs dense %d B (%.1fx reduction)\n",
		q8Up, denseUp, float64(denseUp)/float64(q8Up))
	return nil
}

// The smoke sessions' length and feature-layer width d.
const smokeRounds, smokeFeatureDim = 2, 8

// runSmokeSession drives a short in-process federated session recording
// into reg (and ledger, when non-nil), under the given wire-codec policy.
func runSmokeSession(reg *telemetry.Registry, algo transport.Algorithm, codec transport.CodecPolicy,
	clients int, ledger *telemetry.RunLedger) error {
	train := data.SynthMNIST(240, 1)
	parts := data.PartitionBySimilarity(train.Y, clients, 0, rand.New(rand.NewSource(2)))
	builder := nn.NewMLP(train.Features(), 16, smokeFeatureDim, train.Classes)
	net := builder(7)

	serverConns := make([]transport.Conn, clients)
	clientConns := make([]transport.Conn, clients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = transport.Pipe()
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = transport.RunClient(clientConns[i], train.Subset(parts[i]), transport.ClientConfig{
				Builder: builder, ModelSeed: 7, Seed: int64(100 + i),
				LocalSteps: 2, BatchSize: 16, LR: opt.ConstLR(0.1), Lambda: 1e-3,
			})
		}(i)
	}
	_, err := transport.Serve(transport.ServerConfig{
		Algorithm:     algo,
		Rounds:        smokeRounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Seed:          5,
		Codec:         codec,
		Metrics:       reg,
		Ledger:        ledger,
	}, serverConns)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("smoke session: %w", err)
	}
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("smoke client %d: %w", i, e)
		}
	}
	return nil
}

func get(addr, path string) (string, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(body), fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(body), nil
}
