package fl

// FedAvgM is FedAvg with server-side momentum (Hsu et al., 2019): the
// server treats the averaged client delta as a pseudo-gradient and applies
// a momentum update, which damps the oscillations client drift causes on
// non-IID data. A cheap, widely used remedy worth having next to the
// paper's baselines.
type FedAvgM struct {
	// Beta is the server momentum coefficient (0.9 typical).
	Beta float64
	// ServerLR scales the update; 1.0 recovers plain averaging when
	// Beta = 0.
	ServerLR float64

	Base
	velocity []float64
}

// NewFedAvgM creates FedAvg with server momentum β and server LR 1.
func NewFedAvgM(beta float64) *FedAvgM { return &FedAvgM{Beta: beta, ServerLR: 1} }

// Name returns "FedAvgM".
func (a *FedAvgM) Name() string { return "FedAvgM" }

// Setup initializes the global model and velocity and binds the momentum
// server half.
func (a *FedAvgM) Setup(f *Federation) {
	a.Init(f, Method{Server: a.server})
	a.velocity = make([]float64, f.NumParams())
}

// server applies the pseudo-gradient d = w_global - w̄: v ← βv + d;
// w ← w - lr·v.
func (a *FedAvgM) server(_ int, global, avg []float64, _ []ClientOut) []float64 {
	for i := range global {
		d := global[i] - avg[i]
		a.velocity[i] = a.Beta*a.velocity[i] + d
		global[i] -= a.ServerLR * a.velocity[i]
	}
	return global
}
