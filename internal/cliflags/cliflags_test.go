package cliflags

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// An explicit value equal to the default still reads as set: a binary that
// swaps in a per-dataset default must not overwrite it.
func TestWasSet(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Float64("lr", 0.1, "")
	fs.Int("e", 5, "")
	if err := fs.Parse([]string{"-lr", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if !WasSet(fs, "lr") {
		t.Error("explicit -lr 0.1 (the default) reads as unset")
	}
	if WasSet(fs, "e") {
		t.Error("-e reads as set without being given")
	}
	if WasSet(fs, "nope") {
		t.Error("an undefined flag reads as set")
	}
}

// The model table: the image sets train a CNN with SGD at 0.1, sent140 an
// LSTM with RMSProp at 0.01, every model with a feature layer of -featdim,
// and an unknown name is an error.
func TestModelFor(t *testing.T) {
	for _, c := range []struct {
		dataset string
		lr      float64
		opt     string
	}{{"mnist", 0.1, "*opt.SGD"}, {"cifar", 0.1, "*opt.SGD"}, {"femnist", 0.1, "*opt.SGD"}, {"sent140", 0.01, "*opt.RMSProp"}} {
		m, err := ModelFor(c.dataset, 12)
		if err != nil {
			t.Fatalf("%s: %v", c.dataset, err)
		}
		if got := fmt.Sprintf("%T", m.NewOptimizer()); m.LR != c.lr || got != c.opt {
			t.Errorf("%s: lr %v, solver %s; want %v, %s", c.dataset, m.LR, got, c.lr, c.opt)
		}
		if d := m.Builder(7).FeatureDim; d != 12 {
			t.Errorf("%s: feature dim %d, want 12", c.dataset, d)
		}
	}
	if _, err := ModelFor("bogus", 12); err == nil {
		t.Error("an unknown dataset has a model")
	}
}

// -observe: a fresh run truncates the stream, a resumed one appends to it,
// and Close flushes the span lines no round or event line flushed.
func TestObserveTruncatesOrAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	run := func(resume bool) int {
		o := &Observe{path: &path}
		if err := o.Open(resume); err != nil {
			t.Fatal(err)
		}
		o.Ledger.Emit("run_start", -1, "")
		o.Tracer.Start("round", telemetry.SpanContext{}).End()
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(b, []byte("\n"))
	}
	for i, c := range []struct {
		resume bool
		lines  int
	}{{false, 2}, {true, 4}, {false, 2}} {
		if n := run(c.resume); n != c.lines {
			t.Fatalf("run %d (resume %v): %d lines, want %d", i, c.resume, n, c.lines)
		}
	}
}
