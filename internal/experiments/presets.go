package experiments

// Preset holds the size knobs of one scale. The paper's own values are the
// ScalePaper row; bench and fast shrink client counts, dataset sizes, and
// round budgets so the same code paths finish in seconds/minutes on one
// machine.
type Preset struct {
	// Image datasets: samples generated for train/test pools.
	TrainN, TestN int

	// Cross-silo setting (paper: N=20, E=5, SR=1, B=100).
	SiloClients int
	SiloE       int
	SiloB       int

	// Cross-device setting (paper: N=500, E=10, SR=0.2, B=32).
	DeviceClients int
	DeviceE       int
	DeviceB       int
	DeviceSR      float64

	// FeatureDim is d, the width of the FC feature layer (paper: 512 for
	// the CNN, 256 for the LSTM).
	FeatureDim int

	// Reps is the number of seeds behind each mean ± std cell.
	Reps int

	// Rounds per dataset (paper: MNIST 60, CIFAR10 200, Sent140 30,
	// FEMNIST 80).
	Rounds map[string]int

	// Sent140 generator: users in the pool and samples per user.
	SentUsers, SentPerUser int
	// FEMNIST generator: writers and mean samples per writer.
	FemWriters, FemPerWriter int
}

// For returns the preset of a scale.
func For(scale Scale) Preset {
	switch scale {
	case ScalePaper:
		return Preset{
			TrainN: 20000, TestN: 4000,
			SiloClients: 20, SiloE: 5, SiloB: 100,
			DeviceClients: 500, DeviceE: 10, DeviceB: 32, DeviceSR: 0.2,
			FeatureDim: 128,
			Reps:       3,
			Rounds:     map[string]int{"mnist": 60, "cifar": 200, "sent140": 30, "femnist": 80},
			SentUsers:  500, SentPerUser: 40,
			FemWriters: 500, FemPerWriter: 40,
		}
	case ScaleFast:
		return Preset{
			TrainN: 3000, TestN: 800,
			SiloClients: 10, SiloE: 5, SiloB: 50,
			DeviceClients: 40, DeviceE: 10, DeviceB: 32, DeviceSR: 0.2,
			FeatureDim: 48,
			Reps:       2,
			Rounds:     map[string]int{"mnist": 12, "cifar": 30, "sent140": 10, "femnist": 12},
			SentUsers:  40, SentPerUser: 40,
			FemWriters: 40, FemPerWriter: 30,
		}
	default: // ScaleBench
		return Preset{
			TrainN: 600, TestN: 250,
			SiloClients: 6, SiloE: 5, SiloB: 25,
			DeviceClients: 20, DeviceE: 5, DeviceB: 16, DeviceSR: 0.2,
			FeatureDim: 24,
			Reps:       1,
			Rounds:     map[string]int{"mnist": 4, "cifar": 6, "sent140": 3, "femnist": 4},
			SentUsers:  20, SentPerUser: 25,
			FemWriters: 20, FemPerWriter: 20,
		}
	}
}
