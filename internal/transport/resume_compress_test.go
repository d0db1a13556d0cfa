package transport

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/telemetry"
)

// payloadTap records every packed uplink payload the server receives, keyed
// by (message type, round, client). Pipe conns clone per hop, so the stored
// slices are stable, but we copy anyway to stay transport-agnostic.
type payloadTap struct {
	mu   sync.Mutex
	data map[[3]int32][]byte
}

func newPayloadTap() *payloadTap { return &payloadTap{data: map[[3]int32][]byte{}} }

func (p *payloadTap) observe(m *Message) {
	var pv PackedVec
	switch m.Type {
	case MsgUpdate:
		pv = m.PParams
	case MsgDelta:
		pv = m.PDelta
	default:
		return
	}
	if pv.N == 0 {
		return
	}
	p.mu.Lock()
	p.data[[3]int32{int32(m.Type), m.Round, m.ClientID}] = append([]byte(nil), pv.Data...)
	p.mu.Unlock()
}

// recordingConn taps every message the server receives off a conn.
type recordingConn struct {
	Conn
	tap *payloadTap
}

func (c *recordingConn) Recv() (*Message, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.tap.observe(m)
	}
	return m, err
}

// runCompressedDeterministicSession is runDeterministicSession with an int8
// codec on both uplink classes (broadcast stays dense, error feedback stays
// off — both are preconditions of bitwise resume) and a payload tap on every
// server conn.
func runCompressedDeterministicSession(t *testing.T, fx *federatedFixture, rounds int,
	ckptPath string, resume *Checkpoint) (*ServerResult, *payloadTap) {
	t.Helper()
	const clients = 4
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:      AlgoRFedAvgPlus,
		Rounds:         rounds,
		InitialParams:  net.GetFlat(),
		FeatureDim:     net.FeatureDim,
		SampleRatio:    0.5,
		Seed:           5,
		CheckpointPath: ckptPath,
		Resume:         resume,
		Codec: CodecPolicy{
			Update: compress.SchemeInt8,
			Delta:  compress.SchemeInt8,
		},
		Metrics: telemetry.NewRegistry(),
	}
	tap := newPayloadTap()
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := range serverConns {
		sc, cc := Pipe()
		serverConns[i] = &recordingConn{Conn: sc, tap: tap}
		clientConns[i] = cc
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(100 + i)
			if _, err := RunClient(clientConns[i], fx.shards[i], cfg); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()
	return res, tap
}

func diffTaps(a, b *payloadTap) error {
	for k, av := range a.data {
		bv, ok := b.data[k]
		if !ok {
			return fmt.Errorf("payload (type %d, round %d, client %d) missing from second run", k[0], k[1], k[2])
		}
		if !bytes.Equal(av, bv) {
			return fmt.Errorf("payload (type %d, round %d, client %d) differs: %d vs %d bytes",
				k[0], k[1], k[2], len(av), len(bv))
		}
	}
	return nil
}

// The compressed twin of TestServeResumeSamplesIdenticalCohorts: with the
// quantizer RNG keyed to (Seed, round, client), a session killed after round
// 3 and resumed must reproduce not just the cohorts and bitwise round losses
// of an uninterrupted run, but the exact compressed payload bytes on the
// wire — stochastic rounding included.
func TestServeResumeCompressedPayloadsBitwise(t *testing.T) {
	const rounds = 6
	fx := newFixture(t, 4)

	full, fullTap := runCompressedDeterministicSession(t, fx, rounds, t.TempDir()+"/full.ckpt", nil)
	if len(fullTap.data) == 0 {
		t.Fatal("no compressed payloads captured; the assertions below would be vacuous")
	}

	ckptPath := t.TempDir() + "/round.ckpt"
	prefix, prefixTap := runCompressedDeterministicSession(t, fx, 3, ckptPath, nil)
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck.Round != 3 {
		t.Fatalf("checkpoint at round %d, want 3", ck.Round)
	}
	resumed, resumedTap := runCompressedDeterministicSession(t, fx, rounds, ckptPath, ck)

	if !sameCohorts(prefix.Cohorts, full.Cohorts[:3]) {
		t.Fatalf("prefix cohorts diverge:\n%v\n%v", prefix.Cohorts, full.Cohorts[:3])
	}
	if !sameCohorts(resumed.Cohorts, full.Cohorts[3:]) {
		t.Fatalf("resumed cohorts diverge:\n%v\n%v", resumed.Cohorts, full.Cohorts[3:])
	}
	if len(resumed.RoundLosses) != rounds {
		t.Fatalf("resumed run has %d losses, want %d", len(resumed.RoundLosses), rounds)
	}
	for i := range full.RoundLosses {
		if math.Float64bits(resumed.RoundLosses[i]) != math.Float64bits(full.RoundLosses[i]) {
			t.Fatalf("round %d loss diverged under compression: full %v, resumed %v",
				i+1, full.RoundLosses[i], resumed.RoundLosses[i])
		}
	}

	// Stitch prefix + resumed payload captures together; they must cover the
	// full run's capture exactly, byte for byte.
	stitched := newPayloadTap()
	for k, v := range prefixTap.data {
		stitched.data[k] = v
	}
	for k, v := range resumedTap.data {
		if _, dup := stitched.data[k]; dup {
			t.Fatalf("resumed run re-sent payload (type %d, round %d, client %d) from the prefix", k[0], k[1], k[2])
		}
		stitched.data[k] = v
	}
	if err := diffTaps(fullTap, stitched); err != nil {
		t.Fatalf("full vs prefix+resumed: %v", err)
	}
	if err := diffTaps(stitched, fullTap); err != nil {
		t.Fatalf("prefix+resumed vs full: %v", err)
	}
}

// Chaos under compression: corrupted packed payload bytes either trip the
// server's decode/validation (eviction) or decode to scale-bounded garbage —
// in neither case may they crash the server or push a non-finite value into
// aggregation, and the session must still finish all rounds.
func TestServeCompressedChaosCorruptPayload(t *testing.T) {
	const clients, rounds = 4, 6
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	reg := telemetry.NewRegistry()
	scfg := ServerConfig{
		Algorithm:     AlgoRFedAvgPlus,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Seed:          5,
		Codec: CodecPolicy{
			Broadcast: compress.SchemeF32,
			Update:    compress.SchemeInt8,
			Delta:     compress.SchemeInt8,
		},
		Metrics: reg,
	}
	serverConns := make([]Conn, clients)
	clientConns := make([]Conn, clients)
	for i := range serverConns {
		serverConns[i], clientConns[i] = Pipe()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := fx.ccfg
			cfg.Seed = int64(100 + i)
			conn := clientConns[i]
			if i == 0 {
				conn = NewFaultConn(conn, FaultPlan{Seed: 42, CorruptProb: 1})
			}
			if i == 1 {
				conn = NewFaultConn(conn, FaultPlan{Seed: 7, DuplicateProb: 0.5})
			}
			_, _ = RunClient(conn, fx.shards[i], cfg)
		}(i)
	}
	res, err := Serve(scfg, serverConns)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	wg.Wait()

	if len(res.RoundLosses) != rounds {
		t.Fatalf("session finished %d rounds, want %d", len(res.RoundLosses), rounds)
	}
	for _, l := range res.RoundLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("corrupt compressed payload leaked into aggregation: losses %v", res.RoundLosses)
		}
	}
}
