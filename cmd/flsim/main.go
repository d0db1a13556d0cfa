// Command flsim runs a single federated-learning simulation with fully
// configurable parameters — the general-purpose driver behind the
// experiment harness.
//
// Example:
//
//	flsim -dataset cifar -method rfedavg+ -clients 20 -rounds 30 \
//	      -e 5 -b 50 -sr 1.0 -sim 0 -lambda 5e-3
//	flsim -dataset sent140 -method fedavg -natural -clients 20 -rounds 10
//
// Observability: -observe writes one JSONL stream of the run's span tree
// (session → round → client_round → local_steps/mmd_grad), one
// training-dynamics record per round (loss, per-client losses and update
// norms, the pairwise MMD matrix under rfedavg/rfedavg+, wire bytes) and its
// lifecycle events; render it with cmd/fltrace.
//
// -compress, -compress-ef and -buffer-k run fedavg or rfedavg+ as a real
// session over in-process pipes in virtual time (transport.ServeFederation),
// which replays bit for bit: rounds print their loss, the summary the final
// model's accuracy and the metered bytes; -compress dense is the dense
// baseline there. -buffer-k K > 0 closes each round at the K first updates to
// arrive, each client taking U(0.5, 1.5] virtual seconds per send and receive
// (times its -slow multiplier), and folds the late ones into later rounds with
// the 1/(1+age)^λ staleness discount (-staleness-lambda). -byzantine runs in
// the simulator only.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fl"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		dataset    = flag.String("dataset", "mnist", "mnist, cifar, sent140, or femnist")
		method     = flag.String("method", "rfedavg+", "fedavg, fedprox, scaffold, qfedavg, rfedavg, rfedavg+")
		clients    = flag.Int("clients", 10, "number of clients N")
		rounds     = flag.Int("rounds", 20, "communication rounds C")
		e          = flag.Int("e", 5, "local steps E")
		b          = flag.Int("b", 32, "batch size B")
		sr         = flag.Float64("sr", 1.0, "sample ratio SR")
		sim        = flag.Float64("sim", 0.0, "similarity s ∈ [0,1] for the label-skew split")
		natural    = flag.Bool("natural", false, "use the natural per-user partition (sent140/femnist)")
		lambda     = flag.Float64("lambda", 5e-3, "distribution-regularization weight λ")
		mu         = flag.Float64("mu", 1.0, "FedProx proximal μ")
		q          = flag.Float64("q", 1.0, "q-FedAvg fairness exponent")
		lr         = flag.Float64("lr", 0.1, "local learning rate")
		trainN     = flag.Int("train", 3000, "training samples (image datasets)")
		testN      = flag.Int("test", 800, "test samples (image datasets)")
		featureDim = flag.Int("featdim", 48, "feature-layer width d")
		seed       = flag.Int64("seed", 1, "random seed")
		heapBudget = flag.Int("heap-budget-mb", 0, "fail the run if peak heap use exceeds this many MiB (0 = unlimited); the scale-smoke guard that steady-state memory is O(cohort), not O(N)")
		wallBudget = flag.Duration("wall-budget", 0, "fail the run if training exceeds this wall-clock budget (0 = unlimited)")
		async      = cliflags.AsyncFlags(false)
		slow       = flag.String("slow", "", "comma-separated per-client latency multipliers for -buffer-k's rounds, e.g. 1,1,8,1 (empty = uniform)")
		compressV  = cliflags.Compress("dense")
		compressEF = flag.Bool("compress-ef", false, "carry quantization residuals across rounds (error feedback)")
		showTelem  = cliflags.Summary()
		healthF    = cliflags.HealthFlags()
		telemAddr  = flag.String("telemetry-addr", "", "serve /metrics, pprof, and /debug/fl/health on this address for the duration of the run (e.g. 127.0.0.1:9090)")
		byzantine  = flag.String("byzantine", "", "comma-separated Byzantine clients, id:signflip or id:scaleC (e.g. 2:signflip,5:scale10): tamper with the listed clients' model updates before aggregation")
		obs        = cliflags.Register()
	)
	flag.Parse()
	if err := obs.Open(false); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
	defer obs.Close()

	scheme, err := cliflags.ParseCompress(*compressV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	mon := healthF.Monitor(telemetry.Default(), obs.Ledger)
	wire := wireFlags(func(name string) bool { return cliflags.WasSet(flag.CommandLine, name) }, *async.BufferK)
	if err := checkWire(wire, *method, *slow, *async.BufferK); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	bz, err := parseByzantine(*byzantine, *clients, wire)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	if *telemAddr != "" {
		srv, err := telemetry.ListenAndServe(*telemAddr, telemetry.Default(),
			telemetry.DebugEndpoint{Path: "/debug/fl/health", H: mon.Handler()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s (metrics, pprof, /debug/fl/health)\n", srv.Addr())
	}

	model, err := cliflags.ModelFor(*dataset, *featureDim)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	if !cliflags.WasSet(flag.CommandLine, "lr") {
		*lr = model.LR
	}
	train, test := makeData(*dataset, *trainN, *testN, *clients, *seed)

	rng := rand.New(rand.NewSource(*seed * 13))
	var shards []*data.Dataset
	if *clients > train.Len() {
		// More simulated clients than training samples (the 100k-client
		// scale regime): the similarity split would leave most shards
		// empty, so cycle the samples — one per client, wrapping around.
		// Cohort subsampling means only a sliver of them train per round.
		shards = make([]*data.Dataset, *clients)
		for k := range shards {
			shards[k] = train.Subset([]int{k % train.Len()})
		}
	} else {
		var parts data.Partition
		if *natural {
			if train.Users == nil {
				fmt.Fprintf(os.Stderr, "flsim: %s has no natural user partition\n", *dataset)
				os.Exit(2)
			}
			parts = data.PartitionByUser(train.Users, *clients, rng)
		} else {
			parts = data.PartitionBySimilarity(train.Y, *clients, *sim, rng)
		}
		shards = make([]*data.Dataset, len(parts))
		for k, idx := range parts {
			shards[k] = train.Subset(idx)
		}
	}

	slowFactor, err := parseSlow(*slow, *clients)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}

	cfg := fl.Config{
		Builder:      model.Builder,
		ModelSeed:    *seed * 31,
		Seed:         *seed * 17,
		LocalSteps:   *e,
		BatchSize:    *b,
		SampleRatio:  *sr,
		LR:           opt.ConstLR(*lr),
		NewOptimizer: model.NewOptimizer,
		Tracer:       obs.Tracer,
		Ledger:       obs.Ledger,
		Health:       mon,
		Byzantine:    bz,
	}
	f := fl.NewFederation(cfg, shards, test)

	var alg fl.Algorithm
	switch strings.ToLower(*method) {
	case "fedavg":
		alg = fl.NewFedAvg()
	case "fedprox":
		alg = fl.NewFedProx(*mu)
	case "scaffold":
		alg = fl.NewScaffold(1.0)
	case "qfedavg", "q-fedavg":
		alg = fl.NewQFedAvg(*q)
	case "rfedavg":
		alg = core.NewRFedAvg(*lambda)
	case "rfedavg+", "rfedavgplus":
		alg = core.NewRFedAvgPlus(*lambda)
	default:
		fmt.Fprintf(os.Stderr, "flsim: unknown method %q\n", *method)
		os.Exit(2)
	}

	fmt.Printf("%s on %s: N=%d E=%d B=%d SR=%g rounds=%d (|w|=%d, d=%d)\n",
		alg.Name(), *dataset, *clients, *e, *b, *sr, *rounds, f.NumParams(), f.FeatureDim())
	watch := startHeapWatch()
	start := time.Now()
	var h *metrics.History
	if wire != "" {
		scfg := transport.ServerConfig{Algorithm: wireAlgo(*method), Rounds: *rounds, Codec: transport.CodecPolicy{Update: scheme, Delta: scheme},
			BufferK: *async.BufferK, StalenessLambda: *async.StalenessLambda}
		h, err = runWire(f, scfg, *lambda, *compressEF, slowFactor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flsim:", err)
			obs.Close() // the stream of the failed session
			os.Exit(1)
		}
	} else {
		h = fl.Run(f, alg, *rounds)
	}
	elapsed := time.Since(start)
	peakMiB := watch.stop()
	budgetFail := false
	if *heapBudget > 0 || *wallBudget > 0 {
		fmt.Printf("budget: peak heap %.1f MiB, wall %.2fs\n", peakMiB, elapsed.Seconds())
	}
	if *heapBudget > 0 && peakMiB > float64(*heapBudget) {
		fmt.Fprintf(os.Stderr, "flsim: peak heap %.1f MiB exceeds the %d MiB budget\n", peakMiB, *heapBudget)
		budgetFail = true
	}
	if *wallBudget > 0 && elapsed > *wallBudget {
		fmt.Fprintf(os.Stderr, "flsim: run took %s, over the %s wall budget\n",
			elapsed.Round(time.Millisecond), *wallBudget)
		budgetFail = true
	}
	for _, r := range h.Rounds {
		if wire != "" {
			fmt.Printf("round %3d  loss %.4f\n", r.Round+1, r.TrainLoss)
			continue
		}
		acc := "      -"
		if !math.IsNaN(r.TestAcc) {
			acc = fmt.Sprintf("%.4f", r.TestAcc)
		}
		fmt.Printf("round %3d  loss %.4f  acc %s  %.2fs  up %s down %s\n",
			r.Round+1, r.TrainLoss, acc, r.Seconds,
			metrics.FormatBytes(r.UpBytes), metrics.FormatBytes(r.DownBytes))
	}
	fmt.Println(h.Summary())
	if *showTelem {
		fmt.Println("telemetry summary:")
		telemetry.Default().WriteSummary(os.Stdout)
	}
	if budgetFail {
		obs.Close()
		os.Exit(1)
	}
}

// heapWatch samples the live heap in the background so a budget check sees
// the run's peak, not whatever the final GC left behind.
type heapWatch struct {
	done chan struct{}
	peak chan float64
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{done: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		var ms runtime.MemStats
		max := 0.0
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if m := float64(ms.HeapAlloc) / (1 << 20); m > max {
				max = m
			}
			select {
			case <-w.done:
				w.peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the sampler and returns the observed peak heap in MiB.
func (w *heapWatch) stop() float64 {
	close(w.done)
	return <-w.peak
}

// makeData is -dataset's synthetic train and test sets; ModelFor has
// checked the name.
func makeData(dataset string, trainN, testN, clients int, seed int64) (train, test *data.Dataset) {
	switch dataset {
	case "mnist":
		return data.SynthMNIST(trainN, seed), data.SynthMNIST(testN, seed+1)
	case "cifar":
		return data.SynthCIFAR(trainN, seed), data.SynthCIFAR(testN, seed+1)
	case "femnist":
		perWriter := max(trainN/clients, 8)
		return data.SynthFEMNIST(clients, perWriter, seed), data.SynthFEMNIST(clients/2+1, perWriter, seed+1)
	default: // sent140
		perUser := max(trainN/clients, 8)
		return data.SynthSent140(clients, perUser, seed), data.SynthSent140(clients/2+1, perUser, seed+1)
	}
}

// wireFlags names the flags that run the session on the wire: -compress and
// -compress-ef when set, -buffer-k when positive. "" runs the simulator.
func wireFlags(set func(name string) bool, bufferK int) string {
	var on []string
	for _, name := range []string{"compress", "compress-ef"} {
		if set(name) {
			on = append(on, "-"+name)
		}
	}
	if bufferK > 0 {
		on = append(on, "-buffer-k")
	}
	return strings.Join(on, ", ")
}

// wireAlgo is the wire's name for a -method.
func wireAlgo(method string) transport.Algorithm {
	return transport.Algorithm(strings.Replace(strings.ToLower(method), "plus", "+", 1))
}

// checkWire refuses flags the session they pick cannot honour: -slow outside
// -buffer-k's buffered rounds, and a wire session (wire names the flags that
// asked for it) of a method the wire does not speak.
func checkWire(wire, method, slow string, bufferK int) error {
	if slow != "" && bufferK <= 0 {
		return fmt.Errorf("-slow sets the latencies of -buffer-k's buffered rounds; it needs -buffer-k")
	}
	if a := wireAlgo(method); wire != "" && a != transport.AlgoFedAvg && a != transport.AlgoRFedAvgPlus {
		return fmt.Errorf("%s: the wire session speaks fedavg and rfedavg+, not %q", wire, method)
	}
	return nil
}

// runWire runs f as cfg's protocol session over in-process pipes
// (transport.ServeFederation), with error feedback when ef is set and slow as
// the per-client latency multipliers. The history holds each round's loss;
// its last round carries the final model's test accuracy, the mean round time
// and the server's metered bytes of the whole session.
func runWire(f *fl.Federation, cfg transport.ServerConfig, lambda float64, ef bool, slow []float64) (*metrics.History, error) {
	start := time.Now()
	res, err := transport.ServeFederation(f, cfg, lambda, ef, slow)
	if res == nil {
		return nil, err
	}
	if err != nil { // evicted clients: the session went on without them
		fmt.Fprintln(os.Stderr, "flsim:", err)
	}
	h := &metrics.History{Algorithm: string(cfg.Algorithm) + " (wire)"}
	for c, loss := range res.RoundLosses {
		h.Append(metrics.RoundStats{Round: c, TrainLoss: loss, TestAcc: math.NaN()})
	}
	if n := len(h.Rounds); n > 0 {
		last := &h.Rounds[n-1]
		last.TestAcc = f.Evaluate(res.FinalParams, f.Test)
		last.Seconds = time.Since(start).Seconds() // MeanRoundSeconds divides by the rounds
		last.UpBytes, last.DownBytes = res.UpBytes, res.DownBytes
	}
	return h, nil
}

// parseByzantine parses the -byzantine list: "id:signflip" or "id:scaleC"
// entries, comma-separated; multiple entries for one client compose. An id
// outside the federation, or a wire session (wire names the flags that asked
// for it; the simulator tampers, the wire does not), is an error, not an
// honest run.
func parseByzantine(v string, clients int, wire string) (map[int]fl.Byzantine, error) {
	if v == "" {
		return nil, nil
	}
	if wire != "" {
		return nil, fmt.Errorf("-byzantine runs in the simulator; it cannot combine with the wire session of %s", wire)
	}
	out := make(map[int]fl.Byzantine)
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		id, mode, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-byzantine: %q: want id:signflip or id:scaleC", part)
		}
		ci, err := strconv.Atoi(id)
		if err != nil || ci < 0 {
			return nil, fmt.Errorf("-byzantine: bad client id %q", id)
		}
		if ci >= clients {
			return nil, fmt.Errorf("-byzantine: client %d outside the federation's 0..%d", ci, clients-1)
		}
		b := out[ci]
		switch {
		case mode == "signflip":
			b.SignFlip = true
		case strings.HasPrefix(mode, "scale"):
			c, err := strconv.ParseFloat(mode[len("scale"):], 64)
			if err != nil || c <= 0 {
				return nil, fmt.Errorf("-byzantine: bad scale %q", mode)
			}
			b.Scale = c
		default:
			return nil, fmt.Errorf("-byzantine: unknown mode %q (signflip or scaleC)", mode)
		}
		out[ci] = b
	}
	return out, nil
}

// parseSlow parses the -slow multiplier list. An empty value means uniform
// latency; otherwise exactly one multiplier per client is required.
func parseSlow(v string, clients int) ([]float64, error) {
	if v == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	if len(parts) != clients {
		return nil, fmt.Errorf("-slow: got %d multipliers, want %d (one per client)", len(parts), clients)
	}
	fs := make([]float64, len(parts))
	for i, p := range parts {
		var err error
		if fs[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			return nil, fmt.Errorf("-slow: %q: %v", p, err)
		}
		if fs[i] <= 0 {
			return nil, fmt.Errorf("-slow: multiplier %g must be positive", fs[i])
		}
	}
	return fs, nil
}
