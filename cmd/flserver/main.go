// Command flserver runs a real federated-learning server over TCP. Clients
// (cmd/flclient) connect, join, and train; the server aggregates with
// FedAvg or rFedAvg+ and prints the per-round loss.
//
// Example (3 terminals):
//
//	flserver -addr :7070 -clients 2 -rounds 10 -algo rfedavg+
//	flclient -addr localhost:7070 -dataset mnist -shard 0 -of 2
//	flclient -addr localhost:7070 -dataset mnist -shard 1 -of 2
//
// The model architecture is fixed by (-dataset, -featdim, -modelseed) and
// must match the clients'.
//
// Fault tolerance: with -deadline set, a client that hangs or crashes is
// evicted at the deadline and the round completes over the survivors;
// clients reconnecting later (flclient -retries) are re-admitted at the
// next round boundary. -min-clients sets the quorum below which a round is
// retried (twice, then the session aborts), and -checkpoint makes the server
// persist a checkpoint after every round so a killed session can be resumed
// with -resume.
//
// Asynchronous aggregation: -buffer-k K > 0 closes each round once the K
// fastest updates arrive; stragglers keep running and their updates are
// folded into the next round's aggregate, discounted by 1/(1+age)^λ
// (-staleness-lambda). -adaptive-deadline replaces the fixed -deadline with
// a per-round deadline tracking per-client round-time EWMAs, clamped to
// [deadline/8, deadline]. Buffered updates survive checkpoints, so -resume
// restores them bit-for-bit.
//
// Observability: -telemetry-addr starts an HTTP listener exposing the
// process's metric registry as Prometheus text at /metrics, a liveness
// probe at /healthz, and the standard pprof endpoints under /debug/pprof/.
// -events appends one JSON line per lifecycle event (evict, rejoin, retry,
// checkpoint, resume) to a file, and the registry summary prints when the
// session ends. -trace writes identified spans for every round (server
// phases and, via span contexts carried in the frame headers, the clients'
// local work) and -ledger one training-dynamics record per round attempt;
// render both with cmd/fltrace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		clients    = flag.Int("clients", 2, "number of clients to wait for")
		rounds     = flag.Int("rounds", 10, "communication rounds")
		algo       = flag.String("algo", "rfedavg+", "fedavg or rfedavg+")
		dataset    = flag.String("dataset", "mnist", "mnist, cifar, femnist, or sent140 (fixes the model)")
		featureDim = flag.Int("featdim", 48, "feature-layer width d")
		modelSeed  = flag.Int64("modelseed", 7, "initial-model seed (must match clients)")
		testN      = flag.Int("test", 500, "server-side test samples for final evaluation")
		sr         = flag.Float64("sr", 1.0, "sample ratio per round (partial participation)")
		seed       = flag.Int64("seed", 1, "cohort-sampling seed")

		compressUp    = cliflags.Compress("dense")
		compressBcast = flag.String("compress-bcast", "dense", "wire-compression scheme for the model broadcast: dense, f32, q8, or q1")

		async      = cliflags.AsyncFlags(true)
		deadline   = flag.Duration("deadline", 30*time.Second, "per-phase deadline; clients that miss it are evicted (0 disables)")
		minClients = flag.Int("min-clients", 1, "quorum: rounds with fewer valid updates are retried, twice at most before the session aborts")
		maxStale   = flag.Int("max-stale", 0, "exclude δ rows older than this many rounds from targets (0 = keep forever)")
		ckptPath   = flag.String("checkpoint", "", "write an atomic checkpoint to this file after every round")
		resume     = flag.Bool("resume", false, "resume from -checkpoint if it exists")

		detailN = cliflags.LedgerDetail()

		telemetryAddr = flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof, and /debug/fl/health on this address (empty disables)")
		healthF       = cliflags.HealthFlags()
		obs           = cliflags.Register(true, true, true)
	)
	flag.Parse()
	if *resume && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "flserver: -resume requires -checkpoint")
		os.Exit(2)
	}
	if err := obs.Open(); err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
	defer obs.Close()

	mon, err := healthF.Monitor(telemetry.Default(), obs.Events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(2)
	}
	if *telemetryAddr != "" {
		ts, err := telemetry.ListenAndServe(*telemetryAddr, nil,
			telemetry.DebugEndpoint{Path: "/debug/fl/health", H: mon.Handler()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "flserver:", err)
			os.Exit(1)
		}
		defer ts.Close()
		fmt.Printf("telemetry on http://%s/metrics (pprof under /debug/pprof/, health at /debug/fl/health)\n", ts.Addr())
	}

	upScheme, err := cliflags.ParseCompress(*compressUp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(2)
	}
	bcastScheme, err := cliflags.ParseCompress(*compressBcast)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserver: -compress-bcast:", err)
		os.Exit(2)
	}

	builder, err := modelFor(*dataset, *featureDim)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(2)
	}
	net := builder(*modelSeed)

	l, err := transport.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
	defer l.Close()
	fmt.Printf("listening on %s, waiting for %d clients…\n", l.Addr(), *clients)

	conns := make([]transport.Conn, *clients)
	for i := range conns {
		c, err := l.Accept()
		if err != nil {
			fmt.Fprintln(os.Stderr, "flserver: accept:", err)
			os.Exit(1)
		}
		conns[i] = c
		fmt.Printf("client %d connected\n", i)
	}

	// Late connections are rejoin candidates: keep accepting in the
	// background and hand them to the server, which re-admits them into
	// evicted slots at round boundaries. The goroutine dies with the
	// process; closing the listener on return unblocks Accept.
	rejoin := make(chan transport.Conn, *clients)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				close(rejoin)
				return
			}
			fmt.Println("late connection accepted (rejoin candidate)")
			rejoin <- c
		}
	}()

	cfg := transport.ServerConfig{
		Algorithm:        transport.Algorithm(*algo),
		Rounds:           *rounds,
		InitialParams:    net.GetFlat(),
		FeatureDim:       net.FeatureDim,
		SampleRatio:      *sr,
		Seed:             *seed,
		RoundDeadline:    *deadline,
		MinClients:       *minClients,
		BufferK:          *async.BufferK,
		StalenessLambda:  *async.StalenessLambda,
		AdaptiveDeadline: *async.Adaptive,
		MaxStaleness:     *maxStale,
		Rejoin:           rejoin,
		CheckpointPath:   *ckptPath,
		Codec: transport.CodecPolicy{
			Broadcast: bcastScheme,
			Update:    upScheme,
			Delta:     upScheme,
		},
		Logf: func(format string, args ...any) {
			fmt.Printf("[fault] "+format+"\n", args...)
		},
		Events:        obs.Events,
		Tracer:        obs.Tracer,
		Ledger:        obs.Ledger,
		Health:        mon,
		LedgerDetailN: *detailN,
	}
	if *resume {
		if ck, err := transport.LoadCheckpoint(*ckptPath); err == nil {
			cfg.Resume = ck
			fmt.Printf("resuming from %s at round %d\n", *ckptPath, ck.Round)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "flserver: resume:", err)
			os.Exit(1)
		}
	}

	res, err := transport.Serve(cfg, conns)
	if err != nil {
		obs.Close()
		fmt.Fprintln(os.Stderr, "flserver:", err)
		os.Exit(1)
	}
	for i, loss := range res.RoundLosses {
		fmt.Printf("round %3d  loss %.4f\n", i+1, loss)
	}
	if len(res.Evictions) > 0 || res.Rejoins > 0 || res.RetriedRounds > 0 {
		fmt.Printf("faults: %d evictions, %d rejoins, %d retried round attempts\n",
			len(res.Evictions), res.Rejoins, res.RetriedRounds)
		for _, ev := range res.Evictions {
			fmt.Printf("  evicted client %d (round %d): %s\n", ev.Client, ev.Round, ev.Reason)
		}
	}

	test := testSetFor(*dataset, *testN)
	if test != nil {
		net.SetFlat(res.FinalParams)
		idx := make([]int, test.Len())
		for i := range idx {
			idx[i] = i
		}
		x, y := test.Gather(idx)
		fmt.Printf("final test accuracy: %.4f\n", nn.Accuracy(net.Predict(x), y))
	}

	fmt.Println("telemetry summary:")
	telemetry.Default().WriteSummary(os.Stdout)
}

func modelFor(dataset string, featureDim int) (nn.Builder, error) {
	switch dataset {
	case "mnist":
		return nn.NewImageCNN(data.SynthMNISTSpec, featureDim), nil
	case "cifar":
		return nn.NewImageCNN(data.SynthCIFARSpec, featureDim), nil
	case "femnist":
		return nn.NewImageCNN(data.SynthFEMNISTSpec, featureDim), nil
	case "sent140":
		return nn.NewTextLSTM(data.SynthSent140Spec, 16, 32, featureDim), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

func testSetFor(dataset string, n int) *data.Dataset {
	switch dataset {
	case "mnist":
		return data.SynthMNIST(n, 999)
	case "cifar":
		return data.SynthCIFAR(n, 999)
	case "femnist":
		return data.SynthFEMNIST(10, n/10+1, 999)
	case "sent140":
		return data.SynthSent140(10, n/10+1, 999)
	default:
		return nil
	}
}
