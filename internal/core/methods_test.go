package core

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/compress"
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
// mode: "full", "sr" (SR 0.5), "q8" (int8 uplink with error feedback) or
// "async" (buffer of 3, λ 0.5).
func runMethod(t *testing.T, alg fl.Algorithm, mode string, rounds int) (methodRun, *fl.Federation) {
	t.Helper()
	f := tinyFederation(t, 6, 0.0)
	switch mode {
	case "sr":
		f.Cfg.SampleRatio = 0.5
	case "q8":
		f.Cfg.Compress, f.Cfg.CompressEF = compress.SchemeInt8, true
	case "async":
		f.Cfg.BufferK, f.Cfg.StalenessLambda = 3, 0.5
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
	return r, f
}

// methodPins were recorded on PR 23's parent (d4b789c), where each method
// still had its own hand-written Round, by running this file's runMethod
// there: 4 rounds, the hash of GlobalParams and the summed byte columns.
var methodPins = map[string]methodRun{
	"FedAvg/full":    {0xe110cbeda47db096, 1344960, 1344960},
	"FedAvg/sr":      {0x1a9bfb4f709c93d7, 672480, 672480},
	"FedAvg/q8":      {0x54ef88315f66d8b3, 168720, 1344960},
	"FedAvg/async":   {0x643fbe375f87043c, 1008720, 1008720},
	"FedProx/full":   {0xb5620a4ca0eea5d6, 1344960, 1344960},
	"FedProx/sr":     {0xc6beaef482ed045f, 672480, 672480},
	"FedAvgM/full":   {0x505903fcbf275b0, 1344960, 1344960},
	"FedAvgM/sr":     {0xbc57e65b588d576b, 672480, 672480},
	"FedNova/full":   {0x97ce23e8188b2024, 1345728, 1344960},
	"FedNova/sr":     {0x843e53660b4df767, 672864, 672480},
	"MOON/full":      {0xd2ca632ff78fd058, 1344960, 1344960},
	"MOON/sr":        {0xef1b085ab43377a0, 672480, 672480},
	"q-FedAvg/full":  {0x2d1820020fc271cb, 1345728, 1344960},
	"q-FedAvg/sr":    {0x7831dc42bfb540ee, 672864, 672480},
	"Scaffold/full":  {0xdd3b22b998de6f75, 2689920, 2689920},
	"Scaffold/sr":    {0x7555dab1abebb3d4, 1344960, 1344960},
	"rFedAvg/full":   {0xd651b652664390f, 1348608, 1363968},
	"rFedAvg/sr":     {0xc6defb5cc6611f1f, 674304, 681984},
	"rFedAvg+/full":  {0x53293f4036c6a13a, 1348608, 1684848},
	"rFedAvg+/sr":    {0x12f89f4e891269bd, 674304, 1346784},
	"rFedAvg+/q8":    {0x6976dd989fe26e0b, 169776, 1684848},
	"rFedAvg+/async": {0xa2bb9784b8bc73f5, 1010544, 1347696},
}

// The one round reproduces, to the bit, what the nine hand-written rounds
// computed: parameters and byte totals of every method under the dense
// synchronous round at full participation and SR 0.5, and of the two methods
// that already honoured the codec and the buffer under those too.
func TestMethodsPinned(t *testing.T) {
	for _, m := range nineMethods {
		modes := []string{"full", "sr"}
		if m.name == "FedAvg" || m.name == "rFedAvg+" {
			modes = append(modes, "q8", "async")
		}
		for _, mode := range modes {
			key := m.name + "/" + mode
			got, _ := runMethod(t, m.mk(), mode, 4)
			if want, ok := methodPins[key]; !ok || got != want {
				t.Errorf("%q: {%#x, %d, %d}, pinned %v", key, got.hash, got.up, got.down, want)
			}
		}
	}
}

// Config.Compress and Config.BufferK are properties of the round, so they act
// on every method: under q8 each sampled client's model travels at the codec's
// size (a δ map too; SCAFFOLD's Δc and the scalars stay dense) and the trained
// model differs from the dense run's; under a buffer smaller than the cohort
// round 0 parks the stragglers and round 1 folds them.
func TestEveryMethodHonoursCodecAndBuffer(t *testing.T) {
	for _, m := range nineMethods {
		t.Run(m.name, func(t *testing.T) {
			dense, f := runMethod(t, m.mk(), "full", 2)
			q8, fq := runMethod(t, m.mk(), "q8", 2)
			n, d := f.NumParams(), f.FeatureDim()
			aux := map[string]int64{
				"FedNova": fl.PayloadBytes(1), "q-FedAvg": fl.PayloadBytes(1),
				"Scaffold": fl.PayloadBytes(n), "rFedAvg": fq.UplinkBytes(d), "rFedAvg+": fq.UplinkBytes(d),
			}[m.name]
			if want := 2 * 6 * (fq.UplinkBytes(n) + aux); q8.up != want {
				t.Errorf("q8 uplink %d bytes, want %d", q8.up, want)
			}
			if q8.up >= dense.up || q8.hash == dense.hash {
				t.Errorf("q8 run {%#x, %d up} is the dense run {%#x, %d up}", q8.hash, q8.up, dense.hash, dense.up)
			}

			// Round 0 keeps the three fastest of six and parks the rest; round 1
			// samples the three idle clients, keeps them all and folds the
			// parked ones: six losses, nothing left in the buffer.
			alg := m.mk()
			_, fa := runMethod(t, alg, "async", 1)
			if fa.AsyncDeferred() != 3 {
				t.Fatalf("%d outputs parked after round 0, want 3", fa.AsyncDeferred())
			}
			res := alg.Round(1, fa.SampleClients(1))
			if len(res.ClientLosses) != 6 || fa.AsyncDeferred() != 0 {
				t.Errorf("round 1 aggregated %d clients with %d still parked, want 6 and 0", len(res.ClientLosses), fa.AsyncDeferred())
			}
			if async, _ := runMethod(t, m.mk(), "async", 2); async.hash == dense.hash {
				t.Errorf("async run ends on the synchronous run's parameters %#x", dense.hash)
			}
		})
	}
}
