package compress

import "repro/internal/telemetry"

// RelErrBuckets covers the reconstruction-error histograms: f32 sits in the
// 1e-8 decades, q8 around 1e-3..1e-2, q1 near 1.
var RelErrBuckets = []float64{1e-8, 1e-6, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3}

// reconErrHists are process-wide per-scheme reconstruction-error series on
// the default registry, mirroring the transport's codec byte counters: every
// lossy encode (client update, δ map, broadcast) observes the relative L2
// error between the original vector and what the peer will reconstruct.
var reconErrHists [NumSchemes]*telemetry.Histogram

func init() {
	for s := SchemeF32; s < numSchemes; s++ {
		reconErrHists[s] = telemetry.Default().Histogram(
			`rfl_compression_recon_error{scheme="`+s.String()+`"}`,
			"relative L2 reconstruction error of lossy-compressed payloads, per scheme",
			RelErrBuckets)
	}
}

// ObserveReconError records one payload's relative reconstruction error.
// Dense (lossless) payloads and invalid schemes are ignored.
func ObserveReconError(s Scheme, rel float64) {
	if s == SchemeDense || !s.Valid() {
		return
	}
	reconErrHists[s].Observe(rel)
}

// ReconErr reports how many payloads have been observed for s on the process
// registry and the sum of their relative errors; taken before and after a
// run, the differences give the run's mean.
func ReconErr(s Scheme) (n int64, sum float64) {
	if s == SchemeDense || !s.Valid() {
		return 0, 0
	}
	return reconErrHists[s].Count(), reconErrHists[s].Sum()
}
