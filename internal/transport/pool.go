// Bounded IO fan-out: a fixed-size worker pool for the server's send phases
// (receiving is each conn's pump and the session's one dispatcher). The
// per-phase goroutine burst (and its stack memory) stays O(workers), not
// O(cohort); slots are claimed dynamically off a shared atomic counter so
// uneven per-slot costs (slow clients, evictions) balance across workers.
package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ioWorkers is the server's per-phase goroutine budget. Sends block on the
// network rather than the CPU, so the pool oversubscribes the cores — but
// stays bounded and far below one goroutine per client at scale.
func ioWorkers() int { return min(8*runtime.GOMAXPROCS(0), 256) }

// ioParallel runs fn(i) for every i in [0, n) on at most workers
// goroutines and waits for all of them. Slot order across workers is not
// deterministic, so fn must either be commutative or record into per-slot
// storage (the server's broadcasts write ioErrs[i] and evict serially
// afterwards). A single-slot phase runs inline with no goroutines.
func ioParallel(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
