package tensor

import "repro/internal/telemetry"

// Process-wide GEMM counters on the default registry: every matrix multiply
// funnels through gemm, so calls and flops give a cheap throughput view
// (flops/second between two scrapes) without a profiler, and packed floats
// what the kernel copies to get there. Each update is a single atomic add —
// the zero-alloc hot-path contract holds.
var (
	gemmCalls = telemetry.Default().Counter("tensor_gemm_calls_total",
		"matrix-multiply kernel invocations")
	gemmFlops = telemetry.Default().Counter("tensor_gemm_flops_total",
		"floating-point operations issued by the GEMM kernel (2·m·n·k per call)")
	gemmPackedFloats = telemetry.Default().Counter("tensor_gemm_packed_floats_total",
		"floats written into GEMM packing panels by packA and packB, zero padding included")
)
