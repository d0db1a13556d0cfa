// Package bench defines the hot-path micro-benchmarks (train step, conv,
// matmul, δ computation, wire codecs and framing) that `go test -bench
// BenchmarkMicro` runs for local profiling. The regression gate is the repo
// benchmark under benchmark/, whose per-layer probes cover the same layers.
package bench

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Case is one named micro-benchmark. Bench must not set the kernel
// parallelism itself: RunSerial pins it.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

func synthDataset(rng *rand.Rand, n, features, classes int) *data.Dataset {
	x := tensor.RandNormal(rng, 1, n, features)
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	return &data.Dataset{X: x, Y: y, Classes: classes}
}

// trainStepCase benchmarks steady-state LocalTrain steps on a single-worker
// federation.
func trainStepCase(name string, builder nn.Builder, ds *data.Dataset, batch int) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		cfg := fl.Config{Builder: builder, ModelSeed: 1, Seed: 2, LocalSteps: 1, BatchSize: batch, Workers: 1}
		f := fl.NewFederation(cfg, []*data.Dataset{ds}, nil)
		w, c := f.Worker(0), f.Clients[0]
		rng := rand.New(rand.NewSource(3))
		o := f.DefaultLocalOpts(0)
		f.LocalTrain(w, c, rng, o) // warm up arenas and layer scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.LocalTrain(w, c, rng, o)
		}
	}}
}

// convCase benchmarks the image CNN's second convolution (8×7×7 → 16×7×7,
// 3×3, pad 1): its evaluation-mode forward — at batch 256 the δ pass's call —
// or, with backward set, the full Backward of a training step (parameter and
// input gradients) after an untimed training-mode forward.
func convCase(name string, batch int, backward bool) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		r := rand.New(rand.NewSource(4))
		c := nn.NewConv2D(r, 8, 7, 7, 16, 3, 1, 1)
		x := tensor.RandNormal(r, 1, batch, 8*7*7)
		dout := tensor.RandNormal(r, 1, batch, c.OutFeatures())
		c.Forward(x, backward)
		if backward {
			c.Backward(dout) // warm up the gradient scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if backward {
				c.Backward(dout)
			} else {
				c.Forward(x, false)
			}
		}
	}}
}

// codecCase benchmarks one wire-codec scheme's encode+decode round trip on
// an n-element vector — the per-client cost the transport layer adds to
// every compressed round. Both directions run on retained buffers, so the
// steady state must stay at 0 allocs/op. The plain case times the exported
// primitives back to back; the fused one times what a round runs: the
// sender's encode with the error and the residual from the same pass, and the
// receiver's rebuild onto its reference.
func codecCase(name string, s compress.Scheme, n int, fused bool) Case {
	return Case{Name: name, Bench: func(b *testing.B) {
		r := rand.New(rand.NewSource(9))
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		buf := make([]byte, compress.EncodedBytes(s, n))
		recon, resid := make([]float64, n), make([]float64, n)
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if fused {
				compress.EncodeResidual(s, buf, v, r, nil, resid)
				err = compress.DecodeAddInto(recon, v, s, buf)
			} else {
				compress.EncodeInto(s, buf, v, r)
				err = compress.DecodeInto(recon, s, buf)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// frameParams is the model size of the repo benchmark's fleet workloads: a
// ~1 MB dense frame.
const frameParams = 125978

// discardStream is a connection whose writes vanish.
type discardStream struct{ io.Reader }

func (discardStream) Write(p []byte) (int, error) { return len(p), nil }
func (discardStream) Close() error                { return nil }

// frameWriteCase sends a 1 MB dense frame through a stream conn: the header
// and iovec live in the conn, the payload goes out from the caller's slice,
// so the steady state is 0 B/op.
func frameWriteCase() Case {
	return Case{Name: "frame/write/1MB", Bench: func(b *testing.B) {
		m := &transport.Message{Type: transport.MsgAssign, Params: make([]float64, frameParams)}
		c := transport.NewStreamConn(discardStream{})
		b.SetBytes(int64(m.EncodedSize()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(m); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// frameReadCase decodes the same frame: one allocation for the message, one
// for its Params (≈ 8n B/op), no staging buffer.
func frameReadCase() Case {
	return Case{Name: "frame/read/1MB", Bench: func(b *testing.B) {
		var wire bytes.Buffer
		m := &transport.Message{Type: transport.MsgAssign, Params: make([]float64, frameParams)}
		if err := transport.WriteMessage(&wire, m); err != nil {
			b.Fatal(err)
		}
		r := bytes.NewReader(nil)
		b.SetBytes(int64(wire.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(wire.Bytes())
			if _, err := transport.ReadMessage(r); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// checkpointSaveCase saves the checkpoint of a 1,024-slot session whose every
// slot has reported a 48-dim δ row to a real file — temp file, write, close,
// rename — so the system-call cost a bytes.Buffer hides is on record.
func checkpointSaveCase() Case {
	return Case{Name: "checkpoint/save/1kx48", Bench: func(b *testing.B) {
		const slots, dim, params = 1024, 48, 8378 // the repo benchmark's device-pipe-1k
		r := rand.New(rand.NewSource(10))
		ck := &transport.Checkpoint{
			Round: 100, Global: make([]float64, params), RoundLosses: make([]float64, 100),
			DeltaRows: make([][]float64, slots), DeltaAges: make([]int, slots), DeltaTicks: 100,
			UpdateAges: make([]int, slots), UpdateTicks: 100,
		}
		for k := range ck.DeltaRows {
			ck.DeltaRows[k] = make([]float64, dim)
			for j := range ck.DeltaRows[k] {
				ck.DeltaRows[k][j] = r.NormFloat64()
			}
			ck.DeltaAges[k], ck.UpdateAges[k] = r.Intn(16), r.Intn(16)
		}
		path := filepath.Join(b.TempDir(), "session.ckpt")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := transport.SaveCheckpoint(path, ck); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// Cases returns the micro-benchmark suite.
func Cases() []Case {
	rng := rand.New(rand.NewSource(42))
	denseDS := synthDataset(rng, 512, 64, 10)
	convDS := synthDataset(rng, 256, 1*14*14, 10)

	return []Case{
		trainStepCase("train-step/dense", nn.NewMLP(64, 64, 32, 10), denseDS, 32),
		trainStepCase("train-step/conv",
			nn.NewImageCNN(nn.ImageSpec{C: 1, H: 14, W: 14, Classes: 10}, 32), convDS, 16),
		convCase("conv-forward/8x7x7-k3/b256", 256, false),
		convCase("conv-backward/8x7x7-k3/b32", 32, true),
		{Name: "matmul/64x128x64", Bench: func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			x := tensor.RandNormal(r, 1, 64, 128)
			y := tensor.RandNormal(r, 1, 128, 64)
			out := tensor.New(64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, y)
			}
		}},
		{Name: "matmul/512x256x256", Bench: func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			x := tensor.RandNormal(r, 1, 512, 256)
			y := tensor.RandNormal(r, 1, 256, 256)
			out := tensor.New(512, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, y)
			}
		}},
		{Name: "compute-delta/512x64", Bench: func(b *testing.B) {
			r := rand.New(rand.NewSource(6))
			ds := synthDataset(r, 512, 64, 10)
			net := nn.NewMLP(64, 64, 32, 10)(1)
			arena := nn.NewArena()
			dst := make([]float64, net.FeatureDim)
			core.ComputeDeltaInto(dst, arena, net, ds, 256) // warm up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ComputeDeltaInto(dst, arena, net, ds, 256)
			}
		}},
		{Name: "pairwise-mmd/64x128", Bench: func(b *testing.B) {
			// The server-side MMD matrix over a 64-client table: the N×N
			// distance loop the ledger records each round, parallelized
			// over the kernel pool (64·64·128 crosses its fan-out gate).
			r := rand.New(rand.NewSource(8))
			tbl := core.NewDeltaTable(64, 128)
			row := make([]float64, 128)
			for k := 0; k < 64; k++ {
				for i := range row {
					row[i] = r.NormFloat64()
				}
				tbl.Set(k, row)
			}
			dst := tbl.PairwiseMMDInto(nil) // warm up, size dst
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = tbl.PairwiseMMDInto(dst)
			}
		}},
		{Name: "stream-mean/100kx64", Bench: func(b *testing.B) {
			// The streaming δ̄^{-k} query on a 100k-slot table with one
			// cohort's worth of occupied rows: O(d) per client regardless
			// of N — the per-target cost that replaced the O(Nd) exact
			// scan at scale.
			r := rand.New(rand.NewSource(9))
			tbl := core.NewDeltaTable(100_000, 64)
			tbl.SetStreaming(true)
			row := make([]float64, 64)
			for j := 0; j < 128; j++ {
				for i := range row {
					row[i] = r.NormFloat64()
				}
				tbl.Set(r.Intn(100_000), row)
			}
			dst := make([]float64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl.MeanExcludingInto(dst, i%100_000)
			}
		}},
		codecCase("codec/q8-16k", compress.SchemeInt8, 16*1024, false),
		codecCase("codec/q8-64k", compress.SchemeInt8, 64*1024, false),
		codecCase("codec/q1-64k", compress.SchemeBit1, 64*1024, false),
		codecCase("codec/q8-64k-fused", compress.SchemeInt8, 64*1024, true),
		frameWriteCase(),
		frameReadCase(),
		checkpointSaveCase(),
	}
}

// RunSerial runs one case with the kernel parallelism pinned to 1, matching
// the per-worker budget inside a fully subscribed MapClients pool.
func RunSerial(b *testing.B, c Case) {
	prev := tensor.SetKernelParallelism(1)
	defer tensor.SetKernelParallelism(prev)
	c.Bench(b)
}
