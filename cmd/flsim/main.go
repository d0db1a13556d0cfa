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
// Asynchronous aggregation: -buffer-k K > 0 keeps only the K fastest updates
// per round (under a simulated latency model; -slow makes chosen clients
// persistently slow) and folds deferred updates into later rounds with the
// 1/(1+age)^λ staleness discount (-staleness-lambda).
//
// Observability: -trace writes the run's span tree (session → round →
// client_round → local_steps/mmd_grad) and -ledger one training-dynamics
// record per round (loss, per-client losses and update norms, the pairwise
// MMD matrix under rfedavg/rfedavg+, wire bytes); render both with
// cmd/fltrace. -events logs lifecycle events as JSONL.
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
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
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
		detailN    = cliflags.LedgerDetail()
		async      = cliflags.AsyncFlags(false)
		slow       = flag.String("slow", "", "comma-separated per-client latency multipliers for the async simulator, e.g. 1,1,8,1 (empty = uniform)")
		compressV  = cliflags.Compress("dense")
		compressEF = flag.Bool("compress-ef", false, "carry quantization residuals across rounds (error feedback)")
		showTelem  = cliflags.Summary()
		healthF    = cliflags.HealthFlags()
		telemAddr  = flag.String("telemetry-addr", "", "serve /metrics, pprof, and /debug/fl/health on this address for the duration of the run (e.g. 127.0.0.1:9090)")
		byzantine  = flag.String("byzantine", "", "comma-separated Byzantine clients, id:signflip or id:scaleC (e.g. 2:signflip,5:scale10): tamper with the listed clients' model updates before aggregation")
		obs        = cliflags.Register(true, true, true)
	)
	flag.Parse()
	if err := obs.Open(); err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(1)
	}
	defer obs.Close()

	scheme, err := cliflags.ParseCompress(*compressV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	mon, err := healthF.Monitor(telemetry.Default(), obs.Events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	bz, err := parseByzantine(*byzantine)
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

	train, test, builder, defLR, newOpt, err := makeData(*dataset, *trainN, *testN, *clients, *featureDim, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flsim:", err)
		os.Exit(2)
	}
	if !cliflags.WasSet(flag.CommandLine, "lr") {
		*lr = defLR
	}

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
		Builder:         builder,
		ModelSeed:       *seed * 31,
		Seed:            *seed * 17,
		LocalSteps:      *e,
		BatchSize:       *b,
		SampleRatio:     *sr,
		LR:              opt.ConstLR(*lr),
		NewOptimizer:    newOpt,
		Compress:        scheme,
		CompressEF:      *compressEF,
		BufferK:         *async.BufferK,
		StalenessLambda: *async.StalenessLambda,
		SlowFactor:      slowFactor,
		Tracer:          obs.Tracer,
		Ledger:          obs.Ledger,
		LedgerDetailN:   *detailN,
		Events:          obs.Events,
		Health:          mon,
		Byzantine:       bz,
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
	h := fl.Run(f, alg, *rounds)
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

func makeData(dataset string, trainN, testN, clients, featureDim int, seed int64) (
	train, test *data.Dataset, builder nn.Builder, lr float64, newOpt func() opt.Optimizer, err error) {
	newOpt = func() opt.Optimizer { return opt.NewSGD() }
	lr = 0.1
	switch dataset {
	case "mnist":
		return data.SynthMNIST(trainN, seed), data.SynthMNIST(testN, seed+1),
			nn.NewImageCNN(data.SynthMNISTSpec, featureDim), lr, newOpt, nil
	case "cifar":
		return data.SynthCIFAR(trainN, seed), data.SynthCIFAR(testN, seed+1),
			nn.NewImageCNN(data.SynthCIFARSpec, featureDim), lr, newOpt, nil
	case "femnist":
		perWriter := trainN / clients
		if perWriter < 8 {
			perWriter = 8
		}
		return data.SynthFEMNIST(clients, perWriter, seed), data.SynthFEMNIST(clients/2+1, perWriter, seed+1),
			nn.NewImageCNN(data.SynthFEMNISTSpec, featureDim), lr, newOpt, nil
	case "sent140":
		perUser := trainN / clients
		if perUser < 8 {
			perUser = 8
		}
		return data.SynthSent140(clients, perUser, seed), data.SynthSent140(clients/2+1, perUser, seed+1),
			nn.NewTextLSTM(data.SynthSent140Spec, 16, 32, featureDim), 0.01,
			func() opt.Optimizer { return opt.NewRMSProp() }, nil
	default:
		return nil, nil, nil, 0, nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

// parseByzantine parses the -byzantine list: "id:signflip" or "id:scaleC"
// entries, comma-separated; multiple entries for one client compose.
func parseByzantine(v string) (map[int]fl.Byzantine, error) {
	if v == "" {
		return nil, nil
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
