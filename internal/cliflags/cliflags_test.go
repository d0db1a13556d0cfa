package cliflags

import (
	"flag"
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
