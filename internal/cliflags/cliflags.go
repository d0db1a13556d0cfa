// Package cliflags registers the observability flags shared by the fl
// binaries (flserver, flclient, flsim, flbench) so that every command
// documents them identically in -h and opens the underlying files the same
// way. Each binary opts into the subset of sinks it can feed; the flag
// names and help strings are defined once here, as is the model table the
// binaries share (ModelFor).
package cliflags

import (
	"bufio"
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
	eventsHelp   = "append JSONL lifecycle events (join/done, evict/rejoin/retry/checkpoint/resume) to this file"
	traceHelp    = "write JSONL trace spans (session/round/per-client phases) to this file; render with fltrace -trace"
	ledgerHelp   = "write one JSONL training-dynamics record per round to this file; render with fltrace -ledger"
	summaryHelp  = "print the process metric registry summary after the run"
	compressHelp = "wire-compression scheme for uplink payloads: dense (off), f32, q8, or q1"

	bufferKHelp  = "asynchronous buffered aggregation: close each round at the K fastest updates and fold stragglers into later rounds with a staleness discount (0 = synchronous rounds)"
	lambdaSHelp  = "staleness-discount exponent λ: a fold aged a rounds weighs 1/(1+a)^λ (0 disables the discount)"
	adaptiveHelp = "replace the fixed -deadline with an adaptive per-round deadline from per-client round-time EWMAs, clamped to [deadline/8, deadline] (requires -deadline > 0)"
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

// Telemetry holds the observability flags a binary registered and, after
// Open, the corresponding sinks. Sinks whose flag was not registered or was
// left empty stay nil, which every consumer treats as "disabled".
type Telemetry struct {
	eventsPath, tracePath, ledgerPath *string

	Events *telemetry.EventLog
	Tracer *telemetry.Tracer
	Ledger *telemetry.RunLedger

	files   []*os.File
	buffers []*bufio.Writer
}

// Register installs the requested subset of the shared -events, -trace, and
// -ledger flags on the default flag set. Call Open after flag.Parse.
func Register(events, trace, ledger bool) *Telemetry {
	t := &Telemetry{}
	if events {
		t.eventsPath = flag.String("events", "", eventsHelp)
	}
	if trace {
		t.tracePath = flag.String("trace", "", traceHelp)
	}
	if ledger {
		t.ledgerPath = flag.String("ledger", "", ledgerHelp)
	}
	return t
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
// registering its rfl_health_* metrics on reg and emitting alerts to events
// (either may be nil).
func (h *Health) Monitor(reg *telemetry.Registry, events *telemetry.EventLog) *health.Monitor {
	if h == nil || h.Enabled == nil || !*h.Enabled {
		return nil
	}
	return health.New(health.Config{Registry: reg, Events: events})
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

// Open creates the sinks for every flag that was set. The events log is
// unbuffered append (it must survive a crash and accumulate across
// restarts); trace and ledger files are truncated per run and buffered,
// flushed by Close.
func (t *Telemetry) Open() error {
	if t.eventsPath != nil && *t.eventsPath != "" {
		f, err := os.OpenFile(*t.eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("events: %w", err)
		}
		t.files = append(t.files, f)
		t.Events = telemetry.NewEventLog(f)
	}
	if t.tracePath != nil && *t.tracePath != "" {
		f, err := os.Create(*t.tracePath)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		b := bufio.NewWriter(f)
		t.files = append(t.files, f)
		t.buffers = append(t.buffers, b)
		t.Tracer = telemetry.NewTracer(b)
	}
	if t.ledgerPath != nil && *t.ledgerPath != "" {
		f, err := os.Create(*t.ledgerPath)
		if err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
		b := bufio.NewWriter(f)
		t.files = append(t.files, f)
		t.buffers = append(t.buffers, b)
		t.Ledger = telemetry.NewRunLedger(b)
	}
	return nil
}

// Close flushes the buffered sinks and closes every opened file.
func (t *Telemetry) Close() error {
	var first error
	for _, b := range t.buffers {
		if err := b.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, f := range t.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
