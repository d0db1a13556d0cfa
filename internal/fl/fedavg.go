package fl

// FedAvg is vanilla Federated Averaging (McMahan et al., 2017): sampled
// clients run E local SGD steps from the global model, and the server takes
// the data-size-weighted average of the resulting local models — Base's round
// with neither half replaced.
type FedAvg struct{ Base }

// NewFedAvg creates the FedAvg baseline.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name returns "FedAvg".
func (a *FedAvg) Name() string { return "FedAvg" }
