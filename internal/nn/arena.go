package nn

import (
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// Arena is a keyed pool of reusable scratch buffers for batch assembly, loss
// gradients and δ computation, plus one random source for mini-batch draws;
// layers own their own scratch internally (see DESIGN.md, "Memory model &
// buffer ownership"). Each fl.Worker owns one, and a transport client borrows
// one from the free list (GetArena) for each local training or δ pass.
// Buffers are sized on first use and grown on demand, so a warm arena's
// lookups are allocation-free. Every user writes a buffer, or reseeds the
// source, before reading it, so an arena's last user leaves nothing its next
// one sees. An Arena is not safe for concurrent use: one goroutine holds it
// at a time.
type Arena struct {
	tensors map[string]*tensor.Tensor
	ints    map[string][]int
	rng     *rand.Rand
}

// NewArena creates an empty arena.
func NewArena() *Arena {
	return &Arena{
		tensors: make(map[string]*tensor.Tensor),
		ints:    make(map[string][]int),
	}
}

// The arena free list is one process-wide stack of the arenas put back and not
// taken again — never more than its callers held at once. It has no size, cap
// or setting.
var (
	arenasMu sync.Mutex
	arenas   []*Arena
)

// GetArena returns the arena last put back, or a new one.
func GetArena() *Arena {
	arenasMu.Lock()
	defer arenasMu.Unlock()
	k := len(arenas)
	if k == 0 {
		return NewArena()
	}
	a := arenas[k-1]
	arenas[k-1] = nil
	arenas = arenas[:k-1]
	return a
}

// PutArena hands a back for a later GetArena. The caller gives up a and every
// buffer it handed out.
func PutArena(a *Arena) {
	arenasMu.Lock()
	arenas = append(arenas, a)
	arenasMu.Unlock()
}

// FreeArenas reports how many arenas the free list holds.
func FreeArenas() int {
	arenasMu.Lock()
	defer arenasMu.Unlock()
	return len(arenas)
}

// Tensor returns the scratch tensor registered under key, resized to shape.
// Contents are unspecified (not zeroed). Keys should be constant strings so
// the map lookup itself does not allocate.
func (a *Arena) Tensor(key string, shape ...int) *tensor.Tensor {
	t := tensor.EnsureShape(a.tensors[key], shape...)
	a.tensors[key] = t
	return t
}

// Ints returns the scratch int slice registered under key, resized to n.
// Contents are unspecified.
func (a *Arena) Ints(key string, n int) []int {
	s := a.ints[key]
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	a.ints[key] = s
	return s
}

// Rand returns the arena's random source reseeded with seed. It draws what
// rand.New(rand.NewSource(seed)) draws, whatever it drew before: Seed resets
// both the source and the Rand's read position.
func (a *Arena) Rand(seed int64) *rand.Rand {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(seed))
	} else {
		a.rng.Seed(seed)
	}
	return a.rng
}

// scratchSlot resizes (or creates) element i of a per-timestep scratch list,
// growing the list as needed. The recurrent layers use it to keep one cached
// activation tensor per unrolled step.
func scratchSlot(s *[]*tensor.Tensor, i int, shape ...int) *tensor.Tensor {
	for len(*s) <= i {
		*s = append(*s, nil)
	}
	(*s)[i] = tensor.EnsureShape((*s)[i], shape...)
	return (*s)[i]
}
