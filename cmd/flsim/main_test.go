package main

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fl"
)

// -byzantine either names attackers the simulator can run, or fails: an id
// outside the federation, or a wire session (-compress/-compress-ef), must not
// parse into an honest run.
func TestParseByzantine(t *testing.T) {
	for _, tc := range []struct {
		v    string
		wire bool
		want map[int]fl.Byzantine
		bad  bool
	}{
		{v: "", want: nil},
		{v: "", wire: true, want: nil},
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
		{v: "2:signflip", wire: true, bad: true},
	} {
		got, err := parseByzantine(tc.v, 6, tc.wire)
		if tc.bad {
			if err == nil {
				t.Errorf("%q (wire %v): parsed to %v, want an error", tc.v, tc.wire, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q (wire %v): got (%v, %v), want %v", tc.v, tc.wire, got, err, tc.want)
		}
	}
}
