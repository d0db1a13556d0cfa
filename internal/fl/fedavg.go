package fl

import "math/rand"

// FedAvg is vanilla Federated Averaging (McMahan et al., 2017): sampled
// clients run E local SGD steps from the global model, and the server takes
// the data-size-weighted average of the resulting local models.
type FedAvg struct {
	f      *Federation
	global []float64
}

// NewFedAvg creates the FedAvg baseline.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name returns "FedAvg".
func (a *FedAvg) Name() string { return "FedAvg" }

// Setup initializes the global model w_0.
func (a *FedAvg) Setup(f *Federation) {
	a.f = f
	a.global = f.InitialParams()
}

// GlobalParams returns the current global model.
func (a *FedAvg) GlobalParams() []float64 { return a.global }

// Round runs one FedAvg communication round.
func (a *FedAvg) Round(round int, sampled []int) RoundResult {
	f := a.f
	outs := f.MapClients(round, sampled, func(w *Worker, c *Client, rng *rand.Rand) ClientOut {
		w.LoadModel(a.global)
		loss := f.LocalTrain(w, c, rng, f.DefaultLocalOpts(round))
		out := ClientOut{Client: c, Params: w.Net().GetFlat(), Loss: loss}
		out.ReconErr = f.CompressUplink(w, round, c, 0, a.global, out.Params)
		return out
	})
	agg, ages := f.ApplyAsync(round, outs)
	norms := UpdateNorms(a.global, agg)
	var loss float64
	a.global, loss = f.Aggregate(a.global, agg, ages)
	p := int64(len(sampled))
	rr := RoundResult{
		TrainLoss:    loss,
		ClientLosses: LossMap(agg),
		ClientNorms:  norms,
		DownBytes:    p * PayloadBytes(f.NumParams()),
		UpBytes:      p * f.UplinkBytes(f.NumParams()),
	}
	f.AnnotateCodec(&rr, outs)
	return rr
}
