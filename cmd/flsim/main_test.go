package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fl"
)

// -byzantine either names attackers the simulator can run, or fails: an id
// outside the federation, or a wire session (-compress, -compress-ef,
// -buffer-k), must not parse into an honest run.
func TestParseByzantine(t *testing.T) {
	for _, tc := range []struct {
		v    string
		wire string
		want map[int]fl.Byzantine
		bad  bool
	}{
		{v: "", want: nil},
		{v: "", wire: "-compress", want: nil},
		{v: "2:signflip,5:scale10", want: map[int]fl.Byzantine{2: {SignFlip: true}, 5: {Scale: 10}}},
		{v: "1:signflip, 1:scale3", want: map[int]fl.Byzantine{1: {SignFlip: true, Scale: 3}}},
		{v: "0:scaleInf", want: map[int]fl.Byzantine{0: {Scale: math.Inf(1)}}},
		{v: "9:signflip", bad: true},
		{v: "6:signflip", bad: true},
		{v: "-1:signflip", bad: true},
		{v: "x:signflip", bad: true},
		{v: "2", bad: true},
		{v: "2:scale0", bad: true},
		{v: "2:scale-3", bad: true},
		{v: "2:mirror", bad: true},
		{v: "2:signflip", wire: "-compress", bad: true},
	} {
		got, err := parseByzantine(tc.v, 6, tc.wire)
		if tc.bad {
			if err == nil {
				t.Errorf("%q (wire %q): parsed to %v, want an error", tc.v, tc.wire, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q (wire %q): got (%v, %v), want %v", tc.v, tc.wire, got, err, tc.want)
		}
	}
}

// -buffer-k runs on the wire like -compress, and its refusals say so: -slow
// without it is an error rather than ignored, and a method the wire does not
// speak or a -byzantine attacker fails naming -buffer-k.
func TestBufferKFlags(t *testing.T) {
	none := func(string) bool { return false }
	wire := wireFlags(none, 3)
	if wire != "-buffer-k" || wireFlags(none, 0) != "" {
		t.Fatalf("wireFlags: %q with -buffer-k 3, %q without", wire, wireFlags(none, 0))
	}
	if err := checkWire("", "rfedavg+", "1,1,6", 0); err == nil || !strings.Contains(err.Error(), "-buffer-k") {
		t.Errorf("-slow without -buffer-k: %v, want an error naming -buffer-k", err)
	}
	if err := checkWire(wire, "fedprox", "", 3); err == nil || !strings.Contains(err.Error(), "-buffer-k") {
		t.Errorf("-buffer-k with fedprox: %v, want an error naming -buffer-k", err)
	}
	if _, err := parseByzantine("2:signflip", 6, wire); err == nil || !strings.Contains(err.Error(), "-buffer-k") {
		t.Errorf("-buffer-k with -byzantine: %v, want an error naming -buffer-k", err)
	}
	for _, m := range []string{"fedavg", "rfedavg+", "rfedavgplus"} {
		if err := checkWire(wire, m, "1,1,6", 3); err != nil {
			t.Errorf("-buffer-k with %s: %v", m, err)
		}
	}
}
