package fl

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/engine"
)

// Sampler selects the participating cohort of a round. The paper samples
// uniformly (SR·N clients per round); its future-work section points at
// *adaptive participant selection*, which the non-uniform samplers here
// implement.
type Sampler interface {
	Name() string
	// Sample returns the client indices participating in the round.
	Sample(f *Federation, round int) []int
}

// LossObserver is implemented by samplers that adapt to client losses; Run
// feeds them each round's per-client training losses.
type LossObserver interface {
	Observe(clientID int, loss float64)
}

// UniformSampler draws ⌈SR·N⌉ distinct clients uniformly — FedAvg's
// default scheme and the paper's setting.
type UniformSampler struct{}

// Name returns "uniform".
func (UniformSampler) Name() string { return "uniform" }

// Sample draws the cohort uniformly without replacement — engine.Sample, the
// transport server's draw, over the whole federation.
func (UniformSampler) Sample(f *Federation, round int) []int {
	var rng *rand.Rand
	if f.Cfg.SampleRatio < 1 { // full participation draws nothing
		rng = f.roundRNG(round, -1)
	}
	return engine.Sample(rng, f.everyone, f.Cfg.SampleRatio, 1)
}

// SizeWeightedSampler draws clients with probability proportional to shard
// size (without replacement, Efraimidis–Spirakis weighted reservoir), so
// large data holders participate more often — the sampling scheme under
// which FedAvg's weighted aggregation is unbiased for quantity-skewed
// federations.
type SizeWeightedSampler struct{}

// Name returns "size-weighted".
func (SizeWeightedSampler) Name() string { return "size-weighted" }

// Sample draws the cohort with probability ∝ n_k.
func (SizeWeightedSampler) Sample(f *Federation, round int) []int {
	k := f.cohortSize()
	if k >= len(f.Clients) {
		return allClients(len(f.Clients))
	}
	rng := f.roundRNG(round, -1)
	type keyed struct {
		id  int
		key float64
	}
	keys := make([]keyed, len(f.Clients))
	for i, c := range f.Clients {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[i] = keyed{id: i, key: math.Pow(u, 1/float64(c.Data.Len()))}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].id
	}
	return out
}

// PowerOfChoiceSampler implements the loss-biased "power of choice"
// selection: draw a candidate set of CandidateFactor·cohort clients
// uniformly, then keep the ones with the highest last-observed training
// loss. Biasing rounds toward struggling clients speeds early convergence
// on non-IID data (Deng et al.; Wang et al., INFOCOM 2020).
type PowerOfChoiceSampler struct {
	// CandidateFactor multiplies the cohort size to get the candidate set
	// (the d of power-of-choice); values ≤ 1 degrade to uniform.
	CandidateFactor float64

	mu     sync.Mutex
	losses map[int]float64
}

// NewPowerOfChoiceSampler creates a loss-biased sampler with candidate
// factor d.
func NewPowerOfChoiceSampler(d float64) *PowerOfChoiceSampler {
	return &PowerOfChoiceSampler{CandidateFactor: d, losses: map[int]float64{}}
}

// Name returns "power-of-choice".
func (s *PowerOfChoiceSampler) Name() string { return "power-of-choice" }

// Observe records a client's latest training loss.
func (s *PowerOfChoiceSampler) Observe(clientID int, loss float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.losses[clientID] = loss
}

// lastLoss returns the client's last loss; unseen clients get +Inf so they
// are explored first.
func (s *PowerOfChoiceSampler) lastLoss(id int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.losses[id]; ok {
		return l
	}
	return math.Inf(1)
}

// Sample draws candidates uniformly and keeps the highest-loss ones.
func (s *PowerOfChoiceSampler) Sample(f *Federation, round int) []int {
	k := f.cohortSize()
	n := len(f.Clients)
	if k >= n {
		return allClients(n)
	}
	d := int(math.Ceil(s.CandidateFactor * float64(k)))
	if d < k {
		d = k
	}
	if d > n {
		d = n
	}
	rng := f.roundRNG(round, -1)
	candidates := rng.Perm(n)[:d]
	sort.Slice(candidates, func(a, b int) bool {
		la, lb := s.lastLoss(candidates[a]), s.lastLoss(candidates[b])
		if la == lb {
			return candidates[a] < candidates[b]
		}
		return la > lb
	})
	return append([]int(nil), candidates[:k]...)
}

func allClients(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
