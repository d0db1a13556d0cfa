package rfedavg

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each delegating to the experiment runner at "bench" scale
// (fast presets; run `go run ./cmd/flbench -exp <id> -scale fast|paper`
// for the real regenerations recorded in EXPERIMENTS.md), plus ablation
// benchmarks for the design decisions called out in DESIGN.md. Per-layer
// timings of the hot paths are the repo benchmark's probes (benchmark/).

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fl"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	run, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := run(experiments.ScaleBench, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig1FeatureDivergence(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkTable1CrossSilo(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2CrossDevice(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkTable3DeltaSize(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFig2MNISTCurves(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig4CIFARCurves(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig6Sent140Curves(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig8FEMNISTCurves(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9aLambda(b *testing.B)           { benchExperiment(b, "fig9a") }
func BenchmarkFig9bClients(b *testing.B)          { benchExperiment(b, "fig9b") }
func BenchmarkFig9cLocalSteps(b *testing.B)       { benchExperiment(b, "fig9c") }
func BenchmarkFig9dSampleRatio(b *testing.B)      { benchExperiment(b, "fig9d") }
func BenchmarkFig10Efficiency(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11Fairness(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkFig12Privacy(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkTheoryConvergence(b *testing.B)     { benchExperiment(b, "theory") }

// Extension experiments (see DESIGN.md "Extensions beyond the paper").

func BenchmarkExtBaselines(b *testing.B)       { benchExperiment(b, "extbaselines") }
func BenchmarkExtSamplers(b *testing.B)        { benchExperiment(b, "extsampler") }
func BenchmarkExtPersonalization(b *testing.B) { benchExperiment(b, "extpersonal") }
func BenchmarkExtKernelMMD(b *testing.B)       { benchExperiment(b, "extkernel") }

// Ablation benchmarks (DESIGN.md "Key design decisions"). Each reports the
// final accuracy of the variant as a custom metric so `-bench` output shows
// the effect alongside the cost.

func ablationFederation(b *testing.B, seed int64) (*experiments.Task, func(alg fl.Algorithm) float64) {
	b.Helper()
	t, err := experiments.NewTask("mnist", experiments.ScaleBench, seed)
	if err != nil {
		b.Fatal(err)
	}
	run := func(alg fl.Algorithm) float64 {
		cfg := t.Config(experiments.Silo, 1, 0)
		f := fl.NewFederation(cfg, t.Shards(experiments.Silo, 0, 13), t.Test)
		h := fl.Run(f, alg, t.Rounds())
		return h.FinalAccuracy(2)
	}
	return t, run
}

// BenchmarkAblationDeltaProvenance contrasts Algorithm 1 (δ from local
// models, full-table broadcast) with Algorithm 2 (δ from the synced global
// model, averaged target) at the same λ.
func BenchmarkAblationDeltaProvenance(b *testing.B) {
	t, run := ablationFederation(b, 1)
	b.Run("rFedAvg-local-delta", func(b *testing.B) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc = run(core.NewRFedAvg(t.Lambda))
		}
		b.ReportMetric(acc, "final-acc")
	})
	b.Run("rFedAvgPlus-global-delta", func(b *testing.B) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc = run(core.NewRFedAvgPlus(t.Lambda))
		}
		b.ReportMetric(acc, "final-acc")
	})
}

// BenchmarkAblationLambda turns the regularizer off (λ=0 ≡ FedAvg with
// rFedAvg+'s communication pattern) against the tuned λ.
func BenchmarkAblationLambda(b *testing.B) {
	t, run := ablationFederation(b, 1)
	for _, tc := range []struct {
		name   string
		lambda float64
	}{{"lambda-0", 0}, {"lambda-tuned", t.Lambda}} {
		b.Run(tc.name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc = run(core.NewRFedAvgPlus(tc.lambda))
			}
			b.ReportMetric(acc, "final-acc")
		})
	}
}

// BenchmarkLocalRoundCost isolates one communication round per iteration —
// the per-round wall-clock comparison behind Fig. 10c/d.
func BenchmarkLocalRoundCost(b *testing.B) {
	t, err := experiments.NewTask("mnist", experiments.ScaleBench, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range experiments.MethodsByName("FedAvg", "rFedAvg", "rFedAvg+") {
		b.Run(spec.Name, func(b *testing.B) {
			cfg := t.Config(experiments.Silo, 1, 0)
			f := fl.NewFederation(cfg, t.Shards(experiments.Silo, 0, 13), t.Test)
			alg := spec.Make(t)
			alg.Setup(f)
			sampled := f.SampleClients(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg.Round(i, sampled)
			}
		})
	}
}
