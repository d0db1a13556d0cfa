package main

import (
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/transport"
)

// runPerLayer measures the per-layer metrics. Half the budget alternates
// untraced and traced passes (their difference is the tracing overhead);
// then come the two baselines — plain FedAvg, and observers off where the
// workload has observers — and the layer probes.
func runPerLayer(w *workload, seed int64, budget time.Duration) *result {
	r := &result{Metrics: map[string]metric{}}
	start := time.Now()
	both := repeat(r, w, seed, budget/2, minTracedPairs, passOpts{}, passOpts{traced: true})
	plain, traced := both[0], both[1]
	last := traced[len(traced)-1]
	tr := summarize(last.spans, w.warmup)
	r.trace = last.traceJSONL

	fedavg := runPass(w, seed, passOpts{fedavg: true})
	r.count("fedavg baseline", fedavg)
	var bare *passResult
	if w.observers {
		bare = runPass(w, seed, passOpts{noObservers: true})
		r.count("observers-off baseline", bare)
	}

	// Whatever is left of the budget goes to the probes, within limits that
	// keep each one meaningful and the run bounded.
	const probes = 18
	each := (budget - time.Since(start)) / probes
	each = max(20*time.Millisecond, min(each, 150*time.Millisecond))
	pr := probe(w, seed, last.final, each)

	n := float64(w.timedRounds())
	cohort := float64(w.cohort())
	med := func(get func(*passResult) float64) float64 { return medianOf(plain, get) }
	rounds := func(p *passResult) []float64 { return p.roundMS }
	p05 := quiet(pool(plain, rounds))

	// Probe-estimated cost of the server-side work no span sees from
	// outside, per round, on the round's blocking path.
	explained := pr.aggregateMS + pr.deltaTableUS/1e3
	if w.engine == engineSim {
		workers := min(runtime.GOMAXPROCS(0), w.clients)
		explained += cohort * pr.computeDeltaMS / float64(workers)
	} else {
		explained += cohort * pr.decodeMS
		if w.observers {
			explained += pr.healthObserveUS/1e3 + pr.ledgerRecordUS/1e3 + pr.ckptWriteMS
		}
	}
	residual := tr.roundSelfP50MS - explained

	r.set("tensor.gemm_gflops", "GFLOP/s", pr.gemmGflops)
	r.set("nn.forward_us_per_sample", "us", pr.forwardUSPerSample)
	r.set("nn.flatten_us", "us", pr.flattenUS)
	r.set("opt.step_ms_per_round", "ms", tr.optStepMS/n)
	r.set("opt.steps_per_round", "count", float64(tr.optSteps)/n)
	r.set("data.gather_us", "us", pr.gatherUS)
	r.set("data.synth_s", "s", med(func(p *passResult) float64 { return p.synthS }))
	r.set("fl.local_train_ms", "ms", pr.localTrainMS)
	r.set("fl.aggregate_ms", "ms", pr.aggregateMS)
	r.set("fl.sample_us", "us", zeroIfNaN(median(tr.sampleUS)))
	if w.engine == engineSim {
		r.set("fl.round_self_ms", "ms", residual)
	} else {
		r.set("fl.round_self_ms", "ms", 0)
	}
	r.set("fl.eval_ms", "ms", med(func(p *passResult) float64 { return p.evalMS }))
	r.set("core.compute_delta_ms", "ms", pr.computeDeltaMS)
	r.set("core.mmd_grad_us", "us", pr.mmdGradUS)
	r.set("core.delta_table_us", "us", pr.deltaTableUS)

	r.set("compress.encode_ms", "ms", pr.encodeMS)
	r.set("compress.decode_ms", "ms", pr.decodeMS)
	up := med(func(p *passResult) float64 { return float64(p.upBytes) / n })
	r.set("compress.ratio", "ratio", denseUplinkBytes(w, last)/up)
	r.set("compress.recon_err", "ratio", pr.reconErr)

	r.set("transport.client_busy_ms", "ms", zeroIfNaN(median(tr.busyMS)))
	r.set("transport.client_delta_ms", "ms", zeroIfNaN(median(tr.deltaMS)))
	r.set("transport.bcast_ms", "ms", zeroIfNaN(tr.bcastP50))
	r.set("transport.wire_ms", "ms", zeroIfNaN(median(tr.wireMS)))
	r.set("transport.gather_skew_ms", "ms", zeroIfNaN(tr.skewP50))
	r.set("transport.server_agg_ms", "ms", zeroIfNaN(tr.aggP50))
	r.set("transport.server_close_ms", "ms", zeroIfNaN(tr.closeP50))
	r.set("transport.frame_write_ms", "ms", pr.frameWriteMS)
	r.set("transport.frame_read_ms", "ms", pr.frameReadMS)
	r.set("transport.up_bytes_per_round", "bytes", up)
	r.set("transport.down_bytes_per_round", "bytes", med(func(p *passResult) float64 { return float64(p.downBytes) / n }))
	r.set("transport.msgs_per_round", "count", med(func(p *passResult) float64 { return float64(p.msgs) / n }))
	r.set("transport.skip_msgs_per_round", "count", med(func(p *passResult) float64 { return float64(p.skips) / n }))
	r.set("transport.checkpoint_write_ms", "ms", pr.ckptWriteMS)
	r.set("transport.checkpoint_read_ms", "ms", pr.ckptReadMS)
	r.set("transport.checkpoint_bytes", "bytes", pr.ckptBytes)
	r.set("transport.join_s", "s", med(func(p *passResult) float64 { return p.joinS }))
	r.set("transport.retries", "count", med(func(p *passResult) float64 { return float64(p.retries) }))
	r.set("transport.evictions", "count", med(func(p *passResult) float64 { return float64(p.evictions) }))

	r.set("telemetry.ledger_record_us", "us", pr.ledgerRecordUS)
	r.set("telemetry.ledger_bytes_per_round", "bytes", med(func(p *passResult) float64 { return float64(p.ledgerBytes) / n }))
	share := 0.0
	if bare != nil {
		share = (p05 - quiet(bare.roundMS)) / p05
	}
	r.set("telemetry.observer_share", "ratio", share)
	r.set("health.observe_us", "us", pr.healthObserveUS)

	// Whole-session diagnostics, from the untraced passes.
	pooled := pool(plain, rounds)
	tail := tailPercentile(len(pooled))
	wall := med(func(p *passResult) float64 { return p.wallS })
	r.set("rfedavg.reg_overhead_ratio", "ratio", p05/quiet(fedavg.roundMS))
	r.set("rfedavg.round_ms_p50", "ms", median(pooled))
	r.set("rfedavg.round_ms_tail", "ms", quantile(pooled, tail/100))
	r.set("rfedavg.tail_percentile", "%", tail)
	r.set("rfedavg.tail_samples", "count", float64(len(pooled)))
	r.set("rfedavg.rounds_per_s", "1/s", n/wall)
	r.set("rfedavg.core_utilization", "ratio", med(func(p *passResult) float64 {
		return p.cpuMS / 1e3 / (p.wallS * float64(runtime.GOMAXPROCS(0)))
	}))
	r.set("rfedavg.gc_cycles_per_round", "count", med(func(p *passResult) float64 { return p.gcCycles / n }))
	r.set("rfedavg.gc_pause_ms_per_round", "ms", med(func(p *passResult) float64 { return p.gcPauseMS / n }))
	r.set("rfedavg.heap_sys_mib", "MiB", med(func(p *passResult) float64 { return p.heapSysMiB }))
	r.set("rfedavg.final_loss", "loss", last.losses[len(last.losses)-1])
	r.set("rfedavg.unattributed_share", "ratio", residual/tr.roundDurP50MS)
	r.set("benchmark.box_slowdown", "ratio", r.slowdown())
	r.set("benchmark.trace_overhead_share", "ratio", (quiet(pool(traced, rounds))-p05)/p05)
	return r
}

// denseUplinkBytes is what one timed round's uplink would weigh with every
// payload dense: the base of compress.ratio.
func denseUplinkBytes(w *workload, p *passResult) float64 {
	if w.engine == engineSim || w.codec.Update == compress.SchemeDense {
		return float64(p.upBytes) / float64(w.timedRounds())
	}
	upd := &transport.Message{Type: transport.MsgUpdate, Params: p.final}
	dlt := &transport.Message{Type: transport.MsgDelta, Delta: make([]float64, featureDim)}
	return float64(w.cohort() * (upd.EncodedSize() + dlt.EncodedSize()))
}

// zeroIfNaN maps the median of no samples to the 0 a per-layer metric reads
// where its layer is not on the workload's path.
func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
