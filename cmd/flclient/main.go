// Command flclient joins a federated-learning server (cmd/flserver) over
// TCP with a private shard of a synthetic benchmark and trains locally.
//
// Example:
//
//	flclient -addr localhost:7070 -dataset mnist -shard 0 -of 2 -sim 0
//
// Every client of one session must use the same -dataset, -featdim, and
// -modelseed as the server, and a distinct -shard in [0, -of).
//
// The server's asynchronous mode (flserver -buffer-k) is transparent here: a
// client that misses a round's buffer keeps training and uploads as usual;
// the server parks the late update and folds it into a later round.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cliflags"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:7070", "server address")
		dataset    = flag.String("dataset", "mnist", "mnist, cifar, femnist, or sent140")
		shard      = flag.Int("shard", 0, "this client's shard index")
		of         = flag.Int("of", 2, "total number of shards (clients)")
		sim        = flag.Float64("sim", 0.0, "similarity s of the label-skew split")
		trainN     = flag.Int("train", 2000, "total training pool size (split across shards)")
		e          = flag.Int("e", 5, "local steps E")
		b          = flag.Int("b", 32, "batch size B")
		lr         = flag.Float64("lr", 0.1, "local learning rate")
		lambda     = flag.Float64("lambda", 5e-3, "regularization weight λ (used under rfedavg+)")
		featureDim = flag.Int("featdim", 48, "feature-layer width d")
		modelSeed  = flag.Int64("modelseed", 7, "initial-model seed (must match server)")
		dataSeed   = flag.Int64("dataseed", 1, "data-generation seed (must match other clients)")
		retries    = flag.Int("retries", 0, "re-dial and rejoin this many times after a connection failure")
		backoff    = flag.Duration("backoff", 2*time.Second, "wait between rejoin attempts")
		compressV  = cliflags.Compress("all")
		compressEF = flag.Bool("compress-ef", false, "carry quantization residuals across rounds (error feedback; breaks bitwise resume)")
		showTelem  = cliflags.Summary()
		healthF    = cliflags.HealthFlags()
		obs        = cliflags.Register(true, true, false)
	)
	flag.Parse()
	if err := obs.Open(); err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(1)
	}
	// A client-side monitor watches only this client (a cohort of one):
	// loss trend and update norms against its own history, scored the same
	// way the server scores the fleet.
	mon, err := healthF.Monitor(telemetry.Default(), obs.Events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(2)
	}
	if *shard < 0 || *shard >= *of {
		fmt.Fprintf(os.Stderr, "flclient: shard %d outside [0, %d)\n", *shard, *of)
		os.Exit(2)
	}
	caps, err := cliflags.ParseCompressCaps(*compressV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flclient:", err)
		os.Exit(2)
	}

	var pool *data.Dataset
	var builder nn.Builder
	newOpt := func() opt.Optimizer { return opt.NewSGD() }
	switch *dataset {
	case "mnist":
		pool = data.SynthMNIST(*trainN, *dataSeed)
		builder = nn.NewImageCNN(data.SynthMNISTSpec, *featureDim)
	case "cifar":
		pool = data.SynthCIFAR(*trainN, *dataSeed)
		builder = nn.NewImageCNN(data.SynthCIFARSpec, *featureDim)
	case "femnist":
		pool = data.SynthFEMNIST(*of, *trainN / *of, *dataSeed)
		builder = nn.NewImageCNN(data.SynthFEMNISTSpec, *featureDim)
	case "sent140":
		pool = data.SynthSent140(*of, *trainN / *of, *dataSeed)
		builder = nn.NewTextLSTM(data.SynthSent140Spec, 16, 32, *featureDim)
		newOpt = func() opt.Optimizer { return opt.NewRMSProp() }
		if !cliflags.WasSet(flag.CommandLine, "lr") {
			*lr = 0.01
		}
	default:
		fmt.Fprintf(os.Stderr, "flclient: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	// All clients derive the same partition from the shared data seed, then
	// keep only their own shard — no raw data ever crosses the wire.
	rng := rand.New(rand.NewSource(*dataSeed * 13))
	var parts data.Partition
	if pool.Users != nil {
		parts = data.PartitionByUser(pool.Users, *of, rng)
	} else {
		parts = data.PartitionBySimilarity(pool.Y, *of, *sim, rng)
	}
	mine := pool.Subset(parts[*shard])
	fmt.Printf("shard %d/%d: %d samples, %d classes\n", *shard, *of, mine.Len(), mine.Classes)

	cfg := transport.ClientConfig{
		Builder:       builder,
		ModelSeed:     *modelSeed,
		Seed:          int64(*shard + 1),
		ClientID:      *shard,
		LocalSteps:    *e,
		BatchSize:     *b,
		LR:            opt.ConstLR(*lr),
		NewOptimizer:  newOpt,
		Lambda:        *lambda,
		Caps:          caps,
		ErrorFeedback: *compressEF,
		Tracer:        obs.Tracer,
		Events:        obs.Events,
		Health:        mon,
	}

	// Dial-and-train with a rejoin loop: on a mid-session connection
	// failure the client re-dials, sends a fresh join carrying its slot
	// hint, and the server re-admits it at the next round boundary.
	// Reconnect waits are jittered to ±half the base backoff, seeded by the
	// shard index, so a mass disconnection in a large fleet doesn't re-dial
	// the server as a thundering herd on the same tick.
	jrng := rand.New(rand.NewSource(int64(*shard)*31 + 7))
	for attempt := 0; ; attempt++ {
		conn, err := transport.Dial(*addr)
		if err == nil {
			var final []float64
			final, err = transport.RunClient(conn, mine, cfg)
			if err == nil {
				fmt.Printf("done: received final model (%d params); sent %s, received %s\n",
					len(final), metrics.FormatBytes(conn.BytesSent()), metrics.FormatBytes(conn.BytesReceived()))
				conn.Close()
				obs.Close()
				if *showTelem {
					fmt.Println("telemetry summary:")
					telemetry.Default().WriteSummary(os.Stdout)
				}
				return
			}
			conn.Close()
		}
		if attempt >= *retries {
			obs.Close()
			fmt.Fprintln(os.Stderr, "flclient:", err)
			os.Exit(1)
		}
		sleep := *backoff
		if *backoff > 0 {
			sleep = *backoff/2 + time.Duration(jrng.Int63n(int64(*backoff)))
		}
		fmt.Fprintf(os.Stderr, "flclient: %v — rejoining in %s (%d/%d)\n", err, sleep.Round(time.Millisecond), attempt+1, *retries)
		time.Sleep(sleep)
	}
}
