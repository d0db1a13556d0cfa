package fl

import (
	"math/rand"

	"repro/internal/telemetry"
)

// Method is what sets a federated method apart from FedAvg: the objective its
// clients minimise and the way its server combines what they report. A method
// binds its halves once, in Setup (Base.Init) — a func value made per client
// would cost the round an allocation a client — and the round calls each half
// once per client and once per round.
type Method struct {
	// Local is the client half. It runs on worker w, whose network holds the
	// round's global model, trains it on c's shard and returns the mean
	// training loss and the payload that travels beside the model (δ map,
	// control-variate difference, a scalar). It may touch w, c's data and the
	// method's own per-client state, and read Base.Global; the model it leaves
	// in w's network is what the round reports. Nil is FedAvg's: LocalTrain
	// with DefaultLocalOpts(round).
	Local func(round int, w *Worker, c *Client, rng *rand.Rand) (loss float64, aux []float64)
	// Server is the server half. global is the model the round started from,
	// mean the aggregate of the reported models weighted by shard size, agg
	// the outputs behind it. It returns the next global and may reuse either
	// slice for it. It is not called in a round where nothing valid reported.
	// Nil is FedAvg's: the mean is the next global.
	Server func(round int, global, mean []float64, agg []ClientOut) []float64
	// AuxUp and AuxDown count the floats that travel beside the model, up
	// and down, per sampled client; the byte columns are computed from them.
	AuxUp, AuxDown int
}

// Base is the state every method shares — the federation and the global
// model — and the one round they all run. Methods embed it.
type Base struct {
	F      *Federation
	Global []float64
	m      Method
}

// Init points the method at f, initializes the global model w_0 and binds the
// method's two halves.
func (b *Base) Init(f *Federation, m Method) { b.F, b.Global, b.m = f, f.InitialParams(), m }

// Setup is Init with FedAvg's halves, for methods that add none.
func (b *Base) Setup(f *Federation) { b.Init(f, Method{}) }

// GlobalParams returns the current global model.
func (b *Base) GlobalParams() []float64 { return b.Global }

// Round runs one synchronous communication round: every sampled client loads
// the global model, runs the client half and reports its local model; the
// engine's close feeds the health monitor, gives the mean and the round's loss
// and fills the ledger's client block; the server half turns the mean into the
// next global. The close and (in MapClients) the validation gate belong to the
// round, so they act on every method alike. The clients' half is timed as the
// round's gather phase, the rest as its close.
func (b *Base) Round(round int, sampled []int) RoundResult {
	f, m, global := b.F, &b.m, b.Global
	var outs []ClientOut
	f.Phase(telemetry.PhaseGather, round, func(telemetry.SpanContext) {
		outs = f.MapClients(round, sampled, func(w *Worker, c *Client, rng *rand.Rand) ClientOut {
			w.LoadModel(global)
			out := ClientOut{Client: c}
			if m.Local != nil {
				out.Loss, out.Aux = m.Local(round, w, c, rng)
			} else {
				out.Loss = f.LocalTrain(w, c, rng, f.DefaultLocalOpts(round))
			}
			out.Params = w.Net().GetFlat()
			return out
		})
	})
	var loss float64
	f.Phase(telemetry.PhaseClose, round, func(telemetry.SpanContext) {
		next := make([]float64, len(global))
		var ok bool
		if loss, ok = f.aggregate(f.Cfg.Health, f.roundRec(), round, global, next, outs); ok {
			if m.Server != nil {
				next = m.Server(round, global, next, outs)
			}
			b.Global = next
		}
	})

	// Each way: the model and the AuxUp/AuxDown floats beside it.
	n := f.NumParams()
	down, up := PayloadBytes(n), PayloadBytes(n)
	if m.AuxDown > 0 {
		down += PayloadBytes(m.AuxDown)
	}
	if m.AuxUp > 0 {
		up += PayloadBytes(m.AuxUp)
	}
	p := int64(len(sampled))
	return RoundResult{
		TrainLoss:    loss,
		ClientLosses: lossMap(outs),
		DownBytes:    p * down,
		UpBytes:      p * up,
	}
}
