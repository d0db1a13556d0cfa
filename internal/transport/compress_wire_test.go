package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/compress"
	"repro/internal/telemetry"
)

func TestMessageRoundTripPacked(t *testing.T) {
	m := &Message{
		Type: MsgUpdate, Round: 7, ClientID: 3, NumSamples: 123, Loss: 0.5,
		Caps: compress.AllCaps(), Want: compress.SchemeInt8,
		PParams: PackedVec{Scheme: compress.SchemeInt8, N: 4, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		PDelta:  PackedVec{Scheme: compress.SchemeBit1, N: 3, Data: []byte{9, 10, 11, 12, 13}},
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.EncodedSize() {
		t.Fatalf("EncodedSize %d, wrote %d", m.EncodedSize(), buf.Len())
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Caps != m.Caps || got.Want != m.Want {
		t.Fatalf("caps/want mismatch: %+v", got)
	}
	if got.PParams.Scheme != m.PParams.Scheme || got.PParams.N != m.PParams.N ||
		!bytes.Equal(got.PParams.Data, m.PParams.Data) {
		t.Fatalf("PParams mismatch: %+v", got.PParams)
	}
	if got.PDelta.Scheme != m.PDelta.Scheme || got.PDelta.N != m.PDelta.N ||
		!bytes.Equal(got.PDelta.Data, m.PDelta.Data) {
		t.Fatalf("PDelta mismatch: %+v", got.PDelta)
	}
}

func TestMessageClonePackedIsDeep(t *testing.T) {
	m := &Message{
		Type:    MsgUpdate,
		PParams: PackedVec{Scheme: compress.SchemeInt8, N: 1, Data: []byte{0, 0, 0, 0, 42}},
	}
	c := m.Clone()
	c.PParams.Data[4] = 7
	if m.PParams.Data[4] != 42 {
		t.Fatal("clone shares packed payload storage")
	}
}

// packedFrame writes a valid compressed-update frame and returns the raw
// bytes for corruption, plus the offsets of the packed-params header fields.
func packedFrame(t *testing.T) []byte {
	t.Helper()
	v := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	data := make([]byte, compress.EncodedBytes(compress.SchemeInt8, len(v)))
	compress.EncodeInto(compress.SchemeInt8, data, v, compress.RNG(1, 0, 0))
	var buf bytes.Buffer
	err := WriteMessage(&buf, &Message{
		Type: MsgUpdate, Round: 1, ClientID: 0,
		PParams: PackedVec{Scheme: compress.SchemeInt8, N: int32(len(v)), Data: data},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Forged or corrupted packed headers must be rejected by the fixed-size
// header validation, before any payload allocation happens.
func TestReadMessageRejectsForgedPackedHeaders(t *testing.T) {
	// Offsets into the frame (after the 4-byte length prefix):
	// pScheme at 4+54, pN at 4+55, pLen at 4+59.
	const off = 4
	t.Run("unknown scheme tag", func(t *testing.T) {
		raw := packedFrame(t)
		raw[off+54] = 99
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatal("unknown scheme tag accepted")
		}
	})
	t.Run("forged element count", func(t *testing.T) {
		raw := packedFrame(t)
		// Claim far more elements than the payload bytes justify.
		binary.LittleEndian.PutUint32(raw[off+55:], 1<<20)
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatal("forged element count accepted")
		}
	})
	t.Run("oversized element count", func(t *testing.T) {
		raw := packedFrame(t)
		binary.LittleEndian.PutUint32(raw[off+55:], 0xFFFFFFFF)
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatal("absurd element count accepted")
		}
	})
	t.Run("forged payload length", func(t *testing.T) {
		raw := packedFrame(t)
		plen := binary.LittleEndian.Uint32(raw[off+59:])
		binary.LittleEndian.PutUint32(raw[off+59:], plen+8)
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatal("forged payload length accepted")
		}
	})
	t.Run("nonempty data with zero elements", func(t *testing.T) {
		raw := packedFrame(t)
		binary.LittleEndian.PutUint32(raw[off+55:], 0)
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatal("zero-element packed vector with data accepted")
		}
	})
}

// FuzzReadMessage feeds arbitrary bytes to the frame decoder: it must error
// or produce a message whose packed payloads satisfy the codec invariants —
// never panic or over-allocate.
func FuzzReadMessage(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0})
	var empty bytes.Buffer
	WriteMessage(&empty, &Message{Type: MsgJoin, NumSamples: 3, Caps: compress.AllCaps()})
	f.Add(empty.Bytes())
	var dense bytes.Buffer
	WriteMessage(&dense, &Message{Type: MsgUpdate, Params: []float64{1, 2}, Delta: []float64{3}})
	f.Add(dense.Bytes())
	data := make([]byte, compress.EncodedBytes(compress.SchemeBit1, 9))
	compress.EncodeInto(compress.SchemeBit1, data, make([]float64, 9), nil)
	var packed bytes.Buffer
	WriteMessage(&packed, &Message{Type: MsgDelta,
		PDelta: PackedVec{Scheme: compress.SchemeBit1, N: 9, Data: data}})
	f.Add(packed.Bytes())
	// Short reads: the golden frame (all four sections) cut mid-Params,
	// mid-Delta and mid-packed payload.
	golden := goldenFrame(f)
	for _, cut := range []int{4 + msgHeaderSize + 20, 4 + msgHeaderSize + 56 + 9, len(golden) - 10} {
		f.Add(golden[:cut])
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ReadMessage(bytes.NewReader(raw))
		fuzzLent(t, raw, m, err)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v came with a partially filled message %+v", err, m)
			}
			return
		}
		for _, pv := range []PackedVec{m.PParams, m.PDelta} {
			if pv.N == 0 {
				continue
			}
			if !pv.Scheme.Valid() {
				t.Fatalf("decoded message carries invalid scheme %d", pv.Scheme)
			}
			if len(pv.Data) != compress.EncodedBytes(pv.Scheme, int(pv.N)) {
				t.Fatalf("decoded %v payload has %d bytes for %d elements", pv.Scheme, len(pv.Data), pv.N)
			}
		}
	})
}

// runCodecSession runs one end-to-end session over ServePipes with the given
// server codec policy and per-client caps, on its own registry.
func runCodecSession(t *testing.T, algo Algorithm, policy CodecPolicy, caps compress.Caps,
	rounds int, reg *telemetry.Registry, ledger *telemetry.RunLedger) (*ServerResult, *federatedFixture) {
	t.Helper()
	const clients = 4
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     algo,
		Rounds:        rounds,
		InitialParams: net.GetFlat(),
		FeatureDim:    net.FeatureDim,
		Seed:          5,
		Codec:         policy,
		Metrics:       reg,
		Ledger:        ledger,
	}
	res, err := ServePipes(scfg, fx.shards, func(i int) ClientConfig {
		cfg := fx.client(i)
		cfg.Caps = caps
		return cfg
	}, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return res, fx
}

// A fully compressed rFedAvg+ session must still learn, and the negotiated
// schemes must show up in the per-scheme byte series and the
// reconstruction-error histograms.
func TestServeCompressedSessionLearns(t *testing.T) {
	reg := telemetry.NewRegistry()
	policy := CodecPolicy{
		Broadcast: compress.SchemeF32,
		Update:    compress.SchemeInt8,
		Delta:     compress.SchemeInt8,
	}
	errsBefore, _ := compress.ReconErr(compress.SchemeInt8)
	res, fx := runCodecSession(t, AlgoRFedAvgPlus, policy, 0, 8, reg, nil)
	if fx.accuracy(res.FinalParams) < 0.4 {
		t.Fatalf("compressed session accuracy %v", fx.accuracy(res.FinalParams))
	}
	for _, l := range res.RoundLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite round loss under compression: %v", res.RoundLosses)
		}
	}
	q8Up := reg.Counter(`rfl_codec_payload_bytes_total{dir="recv",scheme="q8"}`, "").Value()
	f32Down := reg.Counter(`rfl_codec_payload_bytes_total{dir="sent",scheme="f32"}`, "").Value()
	if q8Up == 0 || f32Down == 0 {
		t.Fatalf("per-scheme byte series empty: q8 recv %d, f32 sent %d", q8Up, f32Down)
	}
	if errs, _ := compress.ReconErr(compress.SchemeInt8); errs <= errsBefore {
		t.Fatal("no reconstruction errors observed for q8")
	}
}

// The ≥4× uplink-bytes gate on the live wire: the same FedAvg session with
// int8-quantized updates must receive at least 4× fewer bytes than dense. A
// session alone on its registry reports the counters' totals as its own.
func TestServeCompressedUplinkBytesReduction(t *testing.T) {
	const rounds = 3
	regDense := telemetry.NewRegistry()
	resDense, _ := runCodecSession(t, AlgoFedAvg, CodecPolicy{}, 0, rounds, regDense, nil)
	regQ8 := telemetry.NewRegistry()
	resQ8, _ := runCodecSession(t, AlgoFedAvg, CodecPolicy{Update: compress.SchemeInt8}, 0, rounds, regQ8, nil)

	name := `rfl_bytes_received_total{algo="fedavg"}`
	dense := regDense.Counter(name, "").Value()
	q8 := regQ8.Counter(name, "").Value()
	if dense == 0 || q8 == 0 {
		t.Fatalf("byte counters empty: dense %d, q8 %d", dense, q8)
	}
	if sent := regQ8.Counter(`rfl_bytes_sent_total{algo="fedavg"}`, "").Value(); resDense.UpBytes != dense || resQ8.UpBytes != q8 || resQ8.DownBytes != sent {
		t.Fatalf("result bytes up %d/%d, down %d; counters %d/%d, %d", resDense.UpBytes, resQ8.UpBytes, resQ8.DownBytes, dense, q8, sent)
	}
	if q8*4 > dense {
		t.Fatalf("q8 uplink %d bytes not ≥4× below dense %d", q8, dense)
	}
}

// A client that only advertises dense must degrade the whole negotiation to
// dense — the session runs, and no q8 payload ever crosses the wire.
func TestCodecNegotiationFallsBackToDense(t *testing.T) {
	reg := telemetry.NewRegistry()
	policy := CodecPolicy{
		Broadcast: compress.SchemeInt8,
		Update:    compress.SchemeInt8,
		Delta:     compress.SchemeInt8,
	}
	res, fx := runCodecSession(t, AlgoRFedAvgPlus, policy, compress.CapsOf(), 5, reg, nil)
	if fx.accuracy(res.FinalParams) < 0.4 {
		t.Fatalf("fallback session accuracy %v", fx.accuracy(res.FinalParams))
	}
	for _, dir := range []string{"sent", "recv"} {
		if v := reg.Counter(`rfl_codec_payload_bytes_total{dir="`+dir+`",scheme="q8"}`, "").Value(); v != 0 {
			t.Fatalf("q8 bytes %s despite dense-only caps: %d", dir, v)
		}
		if v := reg.Counter(`rfl_codec_payload_bytes_total{dir="`+dir+`",scheme="dense"}`, "").Value(); v == 0 {
			t.Fatalf("no dense bytes %s", dir)
		}
	}
}

// The ledger must name the negotiated update scheme per round.
func TestLedgerRecordsUpScheme(t *testing.T) {
	var buf bytes.Buffer
	ledger := telemetry.NewRunLedger(&buf)
	runCodecSession(t, AlgoFedAvg, CodecPolicy{Update: compress.SchemeInt8}, 0, 2, telemetry.NewRegistry(), ledger)
	if !bytes.Contains(buf.Bytes(), []byte(`"up_scheme":"q8"`)) {
		t.Fatalf("ledger lines missing up_scheme: %s", buf.String())
	}
}

// Error feedback accumulates the quantization residual client-side; a
// session with EF on must still learn under the aggressive 1-bit scheme.
func TestServeCompressedErrorFeedback1Bit(t *testing.T) {
	const clients = 4
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	scfg := ServerConfig{
		Algorithm:     AlgoFedAvg,
		Rounds:        10,
		InitialParams: net.GetFlat(),
		Seed:          5,
		Codec:         CodecPolicy{Update: compress.SchemeBit1},
	}
	res, err := ServePipes(scfg, fx.shards, func(i int) ClientConfig {
		cfg := fx.client(i)
		cfg.ErrorFeedback = true
		return cfg
	}, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	for _, l := range res.RoundLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("EF session produced non-finite loss: %v", res.RoundLosses)
		}
	}
	if last, first := res.RoundLosses[len(res.RoundLosses)-1], res.RoundLosses[0]; last >= first {
		t.Fatalf("1-bit EF session did not reduce loss: %v → %v", first, last)
	}
}

// The paper's accuracy ordering survives wire compression: at 0% label
// similarity under partial participation — the regime where client drift
// hurts FedAvg most — rFedAvg+ with int8-quantized updates and δ maps still
// ranks above plain FedAvg with the same codec.
func TestCompressedAccuracyShape(t *testing.T) {
	const clients, rounds = 6, 12
	fx := newFixture(t, clients)
	net := fx.builder(fx.ccfg.ModelSeed)
	run := func(algo Algorithm) float64 {
		scfg := ServerConfig{
			Algorithm: algo, Rounds: rounds, InitialParams: net.GetFlat(), FeatureDim: net.FeatureDim,
			SampleRatio: 0.5, Seed: 5, Metrics: telemetry.NewRegistry(),
			Codec: CodecPolicy{Update: compress.SchemeInt8, Delta: compress.SchemeInt8},
		}
		res, err := ServePipes(scfg, fx.shards, func(i int) ClientConfig {
			cfg := fx.client(i)
			cfg.Lambda = 0.05
			return cfg
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		return fx.accuracy(res.FinalParams)
	}
	plain, reg := run(AlgoFedAvg), run(AlgoRFedAvgPlus)
	t.Logf("q8 final accuracy: rFedAvg+ %.4f, FedAvg %.4f", reg, plain)
	if reg < 0.5 {
		t.Fatalf("compressed rFedAvg+ accuracy %v, want ≥ 0.5", reg)
	}
	if reg <= plain {
		t.Fatalf("compression inverted the paper's ranking: rFedAvg+ %v ≤ FedAvg %v", reg, plain)
	}
}
