package cliflags

import (
	"flag"
	"fmt"
	"testing"
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
