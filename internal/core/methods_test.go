package core

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/fl"
)

// nineMethods is every method the simulator runs, with the hyperparameters
// the pins below were recorded under.
var nineMethods = []struct {
	name string
	mk   func() fl.Algorithm
}{
	{"FedAvg", func() fl.Algorithm { return fl.NewFedAvg() }},
	{"FedProx", func() fl.Algorithm { return fl.NewFedProx(0.1) }},
	{"FedAvgM", func() fl.Algorithm { return fl.NewFedAvgM(0.9) }},
	{"FedNova", func() fl.Algorithm { return fl.NewFedNova() }},
	{"MOON", func() fl.Algorithm { return fl.NewMOON(1, 0.5) }},
	{"q-FedAvg", func() fl.Algorithm { return fl.NewQFedAvg(1) }},
	{"Scaffold", func() fl.Algorithm { return fl.NewScaffold(1) }},
	{"rFedAvg", func() fl.Algorithm { return NewRFedAvg(1e-3) }},
	{"rFedAvg+", func() fl.Algorithm { return NewRFedAvgPlus(1e-3) }},
}

// methodRun is what a pin holds of a run: the FNV-1a hash of the final
// global's bits and the byte totals.
type methodRun struct {
	hash     uint64
	up, down int64
}

// runMethod runs alg for rounds on a 6-client MLP federation configured by
// mode: "full" or "sr" (SR 0.5).
func runMethod(t *testing.T, alg fl.Algorithm, mode string, rounds int) methodRun {
	t.Helper()
	f := tinyFederation(t, 6, 0.0)
	if mode == "sr" {
		f.Cfg.SampleRatio = 0.5
	}
	alg.Setup(f)
	var r methodRun
	for c := 0; c < rounds; c++ {
		res := alg.Round(c, f.SampleClients(c))
		r.up += res.UpBytes
		r.down += res.DownBytes
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range alg.GlobalParams() {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	r.hash = h.Sum64()
	return r
}

// methodPins were recorded on PR 23's parent (d4b789c), where each method
// still had its own hand-written Round, by running this file's runMethod
// there: 4 rounds, the hash of GlobalParams and the summed byte columns.
var methodPins = map[string]methodRun{
	"FedAvg/full":   {0xe110cbeda47db096, 1344960, 1344960},
	"FedAvg/sr":     {0x1a9bfb4f709c93d7, 672480, 672480},
	"FedProx/full":  {0xb5620a4ca0eea5d6, 1344960, 1344960},
	"FedProx/sr":    {0xc6beaef482ed045f, 672480, 672480},
	"FedAvgM/full":  {0x505903fcbf275b0, 1344960, 1344960},
	"FedAvgM/sr":    {0xbc57e65b588d576b, 672480, 672480},
	"FedNova/full":  {0x97ce23e8188b2024, 1345728, 1344960},
	"FedNova/sr":    {0x843e53660b4df767, 672864, 672480},
	"MOON/full":     {0xd2ca632ff78fd058, 1344960, 1344960},
	"MOON/sr":       {0xef1b085ab43377a0, 672480, 672480},
	"q-FedAvg/full": {0x2d1820020fc271cb, 1345728, 1344960},
	"q-FedAvg/sr":   {0x7831dc42bfb540ee, 672864, 672480},
	"Scaffold/full": {0xdd3b22b998de6f75, 2689920, 2689920},
	"Scaffold/sr":   {0x7555dab1abebb3d4, 1344960, 1344960},
	"rFedAvg/full":  {0xd651b652664390f, 1348608, 1363968},
	"rFedAvg/sr":    {0xc6defb5cc6611f1f, 674304, 681984},
	"rFedAvg+/full": {0x53293f4036c6a13a, 1348608, 1684848},
	"rFedAvg+/sr":   {0x12f89f4e891269bd, 674304, 1346784},
}

// The one round reproduces, to the bit, what the nine hand-written rounds
// computed: parameters and byte totals of every method under the synchronous
// round at full participation and SR 0.5. (Buffered rounds and the wire codec
// are the transport's; their pins are the golden sessions and the replay
// tests there.)
func TestMethodsPinned(t *testing.T) {
	for _, m := range nineMethods {
		for _, mode := range []string{"full", "sr"} {
			key := m.name + "/" + mode
			got := runMethod(t, m.mk(), mode, 4)
			if want, ok := methodPins[key]; !ok || got != want {
				t.Errorf("%q: {%#x, %d, %d}, pinned %v", key, got.hash, got.up, got.down, want)
			}
		}
	}
}
