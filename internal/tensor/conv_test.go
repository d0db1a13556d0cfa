package tensor

import (
	"fmt"
	"strings"
	"testing"
)

// TestConvGeomValidation: the three convolution entry points refuse a
// geometry whose fields are out of range or whose OutH/OutW are not what the
// others imply, naming it, before they touch a tensor — the packers index a
// reused scratch by offsets computed from it and would read stale floats, not
// fail. The consistent geometry they are derived from is accepted.
func TestConvGeomValidation(t *testing.T) {
	good := ConvGeom{InC: 2, InH: 5, InW: 6, OutC: 3, K: 3, Stride: 2, Pad: 1, OutH: 3, OutW: 3}
	call := func(g ConvGeom) {
		bsz, in, out, taps := 2, g.InC*g.InH*g.InW, g.OutC*g.OutH*g.OutW, g.InC*g.K*g.K
		x, y := New(bsz, in), New(bsz, out)
		ConvForward(y, x, New(g.OutC, taps), make([]float64, g.OutC), g)
		ConvBackwardParams(New(g.OutC, taps), make([]float64, g.OutC), y, x, g)
		ConvBackwardInput(x, New(bsz*g.OutH*g.OutW, taps), g)
	}
	call(good)

	bad := map[string]func(g *ConvGeom){
		"OutH one too many":  func(g *ConvGeom) { g.OutH++ },
		"OutW one too few":   func(g *ConvGeom) { g.OutW-- },
		"OutH, OutW zero":    func(g *ConvGeom) { g.OutH, g.OutW = 0, 0 },
		"stride 0":           func(g *ConvGeom) { g.Stride = 0 },
		"stride changed":     func(g *ConvGeom) { g.Stride = 1 },
		"kernel 0":           func(g *ConvGeom) { g.K = 0 },
		"negative pad":       func(g *ConvGeom) { g.Pad = -1 },
		"pad changed":        func(g *ConvGeom) { g.Pad = 2 },
		"no input channels":  func(g *ConvGeom) { g.InC = 0 },
		"no output channels": func(g *ConvGeom) { g.OutC = 0 },
		// Go truncates (7−8)/2 to 0, so the formula alone would pass OutH = 1.
		"kernel past padded row": func(g *ConvGeom) { g.K, g.OutH, g.OutW = 8, 1, 1 },
	}
	for name, mutate := range bad {
		g := good
		mutate(&g)
		for _, entry := range []struct {
			op string
			f  func()
		}{
			{"ConvForward", func() { ConvForward(New(1, 1), New(1, 1), New(1, 1), nil, g) }},
			{"ConvBackwardParams", func() { ConvBackwardParams(New(1, 1), nil, New(1, 1), New(1, 1), g) }},
			{"ConvBackwardInput", func() { ConvBackwardInput(New(1, 1), New(1, 1), g) }},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				entry.f()
				return
			}()
			if want := fmt.Sprintf("%s: inconsistent geometry %+v", entry.op, g); !strings.Contains(msg, want) {
				t.Errorf("%s, %s: panic %q, want one containing %q", name, entry.op, msg, want)
			}
		}
	}
}
