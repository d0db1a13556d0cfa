package fl

import "math/rand"

// FedNova (Wang et al., NeurIPS 2020) fixes FedAvg's objective
// inconsistency when clients perform *different numbers of local steps*:
// each client reports τ_k beside its local model, the server forms the
// normalized update d_k = (w_global - w_k)/τ_k and applies
// w ← w_global - τ_eff·Σ p_k·d_k with τ_eff = Σ p_k·τ_k. With homogeneous
// steps it reduces to FedAvg exactly.
//
// Here heterogeneity arises naturally from quantity skew: a client's local
// steps scale with its shard size, τ_k = max(1, round(E·n_k/n̄)).
type FedNova struct {
	// ProportionalSteps scales each client's step count with its shard
	// size; when false every client runs E steps (≡ FedAvg).
	ProportionalSteps bool

	Base
}

// NewFedNova creates the FedNova baseline with size-proportional local
// work.
func NewFedNova() *FedNova { return &FedNova{ProportionalSteps: true} }

// Name returns "FedNova".
func (a *FedNova) Name() string { return "FedNova" }

// Setup initializes the global model and binds both halves; τ_k travels up
// beside the model.
func (a *FedNova) Setup(f *Federation) {
	a.Init(f, Method{Local: a.local, Server: a.server, AuxUp: 1})
}

// LocalSteps returns τ_k for a client.
func (a *FedNova) LocalSteps(c *Client) int {
	e := a.F.Cfg.LocalSteps
	if !a.ProportionalSteps {
		return e
	}
	mean := 0.0
	for _, cl := range a.F.Clients {
		mean += float64(cl.Data.Len())
	}
	mean /= float64(len(a.F.Clients))
	tau := int(float64(e)*float64(c.Data.Len())/mean + 0.5)
	if tau < 1 {
		tau = 1
	}
	return tau
}

// local runs τ_k steps and reports τ_k beside the local model.
func (a *FedNova) local(round int, w *Worker, c *Client, rng *rand.Rand) (float64, []float64) {
	o := a.F.DefaultLocalOpts(round)
	o.E = a.LocalSteps(c)
	return a.F.LocalTrain(w, c, rng, o), []float64{float64(o.E)}
}

// server derives each normalized update d_k = (w_global - w_k)/τ_k from the
// reported model, in place, and applies w ← w - τ_eff·Σ p̃_k·d_k with
// τ_eff = Σ p̃_k·τ_k over the aggregation set.
func (a *FedNova) server(_ int, global, dbar []float64, agg []ClientOut) []float64 {
	den := 0.0
	for _, o := range agg {
		den += float64(o.Client.Data.Len())
	}
	tauEff := 0.0
	for _, o := range agg {
		tau := o.Aux[0]
		for j, local := range o.Params {
			o.Params[j] = (global[j] - local) / tau
		}
		pk := float64(o.Client.Data.Len()) / den
		tauEff += pk * tau
	}
	a.F.aggregate(nil, nil, 0, nil, dbar, agg)
	for i := range global {
		global[i] -= tauEff * dbar[i]
	}
	return global
}
