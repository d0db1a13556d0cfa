// Package cliflags registers the flags shared by the fl binaries (flserver,
// flclient, flsim) so that every command documents them identically in -h
// and opens the observer stream the same way. The flag names and help
// strings are defined once here, as is the model table the binaries share
// (ModelFor).
package cliflags

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/compress"
	"repro/internal/data"
	"repro/internal/health"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// Shared help strings — the single source of the -h wording.
const (
	observeHelp  = "write the observer stream to this file: one JSONL line per trace span, round record and lifecycle event; render with fltrace -observe"
	summaryHelp  = "print the process metric registry summary after the run"
	compressHelp = "wire-compression scheme for uplink payloads: dense (off), f32, q8, or q1"

	bufferKHelp  = "asynchronous buffered aggregation: close each round at the K fastest updates and fold stragglers into later rounds with a staleness discount (0 = synchronous rounds)"
	lambdaSHelp  = "staleness-discount exponent λ: a fold aged a rounds weighs 1/(1+a)^λ (0 disables the discount)"
	adaptiveHelp = "replace the fixed -deadline with an adaptive per-round deadline: each client's RFC 6298 round-trip bound (SRTT + max(SRTT/2, 4·RTTVAR)), taken at the 0.9 quantile across clients and clamped to [deadline/8, deadline] (requires -deadline > 0)"
)

// Model is what a -dataset/-featdim pair trains: the architecture, the local
// solver and the default -lr.
type Model struct {
	Builder      nn.Builder
	NewOptimizer func() opt.Optimizer
	LR           float64
}

// ModelFor is the model table flserver, flclient and flsim share, so that a
// server and its clients cannot drift apart on architecture: the image sets
// train a CNN with SGD at lr 0.1, sent140 an LSTM with RMSProp at 0.01.
func ModelFor(dataset string, featureDim int) (Model, error) {
	m := Model{NewOptimizer: func() opt.Optimizer { return opt.NewSGD() }, LR: 0.1}
	switch dataset {
	case "mnist":
		m.Builder = nn.NewImageCNN(data.SynthMNISTSpec, featureDim)
	case "cifar":
		m.Builder = nn.NewImageCNN(data.SynthCIFARSpec, featureDim)
	case "femnist":
		m.Builder = nn.NewImageCNN(data.SynthFEMNISTSpec, featureDim)
	case "sent140":
		m.Builder = nn.NewTextLSTM(data.SynthSent140Spec, 16, 32, featureDim)
		m.NewOptimizer, m.LR = func() opt.Optimizer { return opt.NewRMSProp() }, 0.01
	default:
		return Model{}, fmt.Errorf("unknown dataset %q", dataset)
	}
	return m, nil
}

// Observe holds the -observe flag and, after Open, the stream it names: one
// file that the ledger's round and event lines and the tracer's span lines
// share. Both stay nil when the flag is empty, which every consumer treats
// as "disabled".
type Observe struct {
	path *string

	Ledger *telemetry.RunLedger
	Tracer *telemetry.Tracer

	f *os.File
	b *bufio.Writer
}

// Register installs the -observe flag on the default flag set. Call Open
// after flag.Parse.
func Register() *Observe {
	return &Observe{path: flag.String("observe", "", observeHelp)}
}

// Async holds the shared asynchronous-aggregation flags: a -buffer-k above 0
// turns buffered rounds on. -adaptive-deadline is registered only for
// deployment drivers (flserver), which have a -deadline to adapt. flsim has
// none: its virtual-time sessions (transport.ServeFederation) set no deadline.
type Async struct {
	BufferK         *int
	StalenessLambda *float64
	Adaptive        *bool
}

// AsyncFlags installs the shared -buffer-k and -staleness-lambda flags, plus
// -adaptive-deadline when adaptive is set, on the default flag set.
func AsyncFlags(adaptive bool) *Async {
	a := &Async{
		BufferK:         flag.Int("buffer-k", 0, bufferKHelp),
		StalenessLambda: flag.Float64("staleness-lambda", 0.5, lambdaSHelp),
	}
	if adaptive {
		a.Adaptive = flag.Bool("adaptive-deadline", false, adaptiveHelp)
	}
	return a
}

// WasSet reports whether the named flag was given on fs's command line, so
// a binary can tell an explicit value from the flag's default.
func WasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// Health holds the shared run-health-monitor flag.
type Health struct {
	Enabled *bool
}

// HealthFlags installs the shared -health flag on the default flag set.
// Build the monitor with Monitor after flag.Parse.
func HealthFlags() *Health {
	return &Health{
		Enabled: flag.Bool("health", false,
			"per-client run health monitoring: rolling anomaly scores, round verdicts, rfl_health_* metrics, and alerts on clients scoring below 0.5"),
	}
}

// Monitor builds the health monitor the flags requested: nil (disabled,
// safe to pass everywhere) when -health is off, otherwise a monitor
// registering its rfl_health_* metrics on reg and writing alerts to ledger
// (either may be nil).
func (h *Health) Monitor(reg *telemetry.Registry, ledger *telemetry.RunLedger) *health.Monitor {
	if h == nil || h.Enabled == nil || !*h.Enabled {
		return nil
	}
	return health.New(health.Config{Registry: reg, Ledger: ledger})
}

// Summary installs the shared -telemetry flag.
func Summary() *bool {
	return flag.Bool("telemetry", false, summaryHelp)
}

// Compress installs the shared -compress flag with the given default
// ("dense" for drivers that pick a codec, "all" for clients that advertise
// acceptance). Resolve the parsed value with ParseCompress or
// ParseCompressCaps after flag.Parse.
func Compress(def string) *string {
	help := compressHelp
	if def == "all" {
		help = compressHelp + "; all = accept every scheme the server offers"
	}
	return flag.String("compress", def, help)
}

// ParseCompress resolves a -compress value to the wire codec scheme.
func ParseCompress(v string) (compress.Scheme, error) {
	s, err := compress.ParseScheme(v)
	if err != nil {
		return 0, fmt.Errorf("-compress: %w", err)
	}
	return s, nil
}

// ParseCompressCaps resolves a client's -compress value to its advertised
// capability set: "all" accepts every scheme; a named scheme accepts dense
// plus that scheme only.
func ParseCompressCaps(v string) (compress.Caps, error) {
	if v == "all" {
		return compress.AllCaps(), nil
	}
	s, err := ParseCompress(v)
	if err != nil {
		return 0, err
	}
	return compress.CapsOf(compress.SchemeDense, s), nil
}

// Open creates the stream when -observe was given: truncated for a fresh
// run, appended to when resume is set (flserver -resume). The stream is
// buffered; the ledger flushes it with every round and event line.
func (o *Observe) Open(resume bool) error {
	if *o.path == "" {
		return nil
	}
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resume {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(*o.path, mode, 0o644)
	if err != nil {
		return fmt.Errorf("observe: %w", err)
	}
	o.f, o.b = f, bufio.NewWriter(f)
	o.Ledger = telemetry.NewRunLedger(o.b)
	o.Tracer = o.Ledger.Tracer()
	return nil
}

// Close flushes and closes the stream; a second Close does nothing.
func (o *Observe) Close() error {
	if o.f == nil {
		return nil
	}
	err := errors.Join(o.b.Flush(), o.f.Close())
	o.f = nil
	return err
}
