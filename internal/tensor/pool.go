package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the persistent kernel worker pool: a package-level set of
// long-lived goroutines, lazily started on the first parallel kernel call,
// that execute cooperative tile/index tasks with a gemmScratch pinned per
// worker. It replaces the previous per-call goroutine spawns (and the
// per-call trips to the pack-scratch free list the spawned goroutines made):
// dispatching a parallel kernel now costs a few CAS operations on idle
// workers instead of W goroutine creations, and each worker's packing
// buffers stay cache-warm across calls.
//
// Workers are busy-spin-then-park: after poolSpins empty polls of their task
// slot (yielding to the scheduler periodically, so a GOMAXPROCS=1 process
// can never livelock) they publish themselves as parked and block on a
// one-slot wake channel. Submission is a per-worker CAS handshake —
// idle→assigned reserves the worker, then the job pointer is stored (and a
// wake sent if it was parked). A worker that cannot be reserved is simply
// skipped: the caller runs a larger share itself, so concurrent kernel
// callers degrade gracefully instead of queueing behind each other, and no
// code path in the pool ever blocks while holding work — the deadlock-
// freedom argument is that parked workers hold nothing and running workers
// only spin on progress counters that other *running* goroutines advance.
//
// Jobs are reused through a free list (jobPool) and all cross-goroutine
// hand-off goes through atomics, so steady-state parallel dispatch performs
// zero allocations — the same invariant the serial path has had since the
// arena work (see DESIGN.md, "Memory model & buffer ownership").

// Worker states. A worker owns its slot while stateSpin/stateParked; a
// submitter owns it after a successful CAS to stateAssigned and must store
// the job (and wake a parked worker) exactly once.
const (
	stateSpin     = int32(0) // polling its job slot
	stateParked   = int32(1) // blocked on wake
	stateAssigned = int32(2) // reserved by a submitter or running a job
)

const (
	// poolSpins is how many empty polls a worker makes before parking;
	// poolSpinYield is how often it yields the processor while spinning.
	poolSpins     = 1 << 14
	poolSpinYield = 64
)

type poolWorker struct {
	state   atomic.Int32
	job     atomic.Pointer[kernelJob]
	wake    chan struct{}
	scratch *gemmScratch // pinned: this worker's packing storage, forever
}

// pool holds the started workers. The slice only ever grows; readers load
// it atomically and never mutate it, so submission is lock-free once the
// pool is warm.
var pool struct {
	mu      sync.Mutex
	workers atomic.Pointer[[]*poolWorker]
}

// poolWorkers returns at least n started workers (growing the pool under
// the lock if needed). n is clamped to NumCPU: more spinners than processors
// can never help a compute-bound kernel.
func poolWorkers(n int) []*poolWorker {
	if max := runtime.NumCPU(); n > max {
		n = max
	}
	if ws := pool.workers.Load(); ws != nil && len(*ws) >= n {
		return *ws
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	var ws []*poolWorker
	if p := pool.workers.Load(); p != nil {
		ws = *p
	}
	for len(ws) < n {
		w := &poolWorker{wake: make(chan struct{}, 1), scratch: new(gemmScratch)}
		ws = append(ws, w)
		go w.loop()
	}
	pool.workers.Store(&ws)
	return ws
}

func (w *poolWorker) loop() {
	for {
		var j *kernelJob
		for spins := 0; ; spins++ {
			if j = w.job.Swap(nil); j != nil {
				break
			}
			if spins < poolSpins {
				if spins%poolSpinYield == poolSpinYield-1 {
					runtime.Gosched()
				}
				continue
			}
			if w.state.CompareAndSwap(stateSpin, stateParked) {
				<-w.wake // a submitter reserved us; its job store precedes the wake
				j = w.job.Swap(nil)
				break
			}
			// CAS lost: a submitter already reserved us and the job store is
			// imminent — keep polling.
			runtime.Gosched()
		}
		j.run(w.scratch)
		j.runners.Add(-1)
		w.state.Store(stateSpin)
	}
}

// poolSubmit offers j to up to extra idle workers and returns how many were
// reserved. Each reservation increments j.runners before the worker can
// observe the job, so j.wait's runners==0 check can never pass early.
func poolSubmit(j *kernelJob, extra int) int {
	if extra <= 0 {
		return 0
	}
	granted := 0
	for _, w := range poolWorkers(extra) {
		if granted == extra {
			break
		}
		if w.state.CompareAndSwap(stateSpin, stateAssigned) {
			j.runners.Add(1)
			w.job.Store(j)
			granted++
		} else if w.state.CompareAndSwap(stateParked, stateAssigned) {
			j.runners.Add(1)
			w.job.Store(j)
			w.wake <- struct{}{}
			granted++
		}
	}
	return granted
}

// Job kinds.
const (
	kindGemm = int32(iota)
	kindFor
	kindConv
)

// kernelJob is one parallel kernel invocation, shared by the caller and the
// pool workers it reserved. All mutable coordination state is atomic; the
// plain fields are written by the owning caller before poolSubmit's atomics
// publish the job and are read-only afterwards. Jobs are recycled via
// jobPool; a monotone generation number (gen) makes per-worker packed-tile
// caches safe across reuse.
type kernelJob struct {
	kind int32
	gen  uint64

	// kindGemm operands: out += op(a)·op(b), out is m×n row-major.
	out, a, b      []float64
	lda, ldb       int
	m, k, n        int
	transA, transB bool

	// 2-D schedule geometry (immutable per job). Slabs are (jc, pc) blocks
	// of B, pc-innermost; within a slab the output is tiled MC×tileNC. All
	// claim counters are global monotone sequence numbers — slab s owns the
	// half-open ranges [packBase(s), packEnd(s)) and [tileBase(s),
	// tileEnd(s)) computed arithmetically from s — so no counter is ever
	// reset while workers race on it.
	slabsPerCol int // ceil(k/KC): slabs in one jc column
	nSlabCols   int // ceil(n/NC)
	nSlabs      int
	rowStep     int // row-tile height: MC, shrunk toward MR for small grids
	rowTiles    int // ceil(m/rowStep)
	ncLast      int // width of the final jc column
	packedB     []float64

	phase    atomic.Int64 // current slab; nSlabs when the job is complete
	packNext atomic.Int64
	packDone atomic.Int64
	tileNext atomic.Int64
	tileDone atomic.Int64

	// kindFor: fn(i) for i in [0, forN), dynamically claimed.
	forN    int
	forFn   func(i int)
	forNext atomic.Int64

	// kindConv: conv.sample(b) for b in [0, forN), claimed through forNext.
	conv convCall

	runners atomic.Int32
	next    *kernelJob
}

// jobPool is the kernelJob free list; like gemmPool it is a deterministic
// mutex-guarded stack rather than a sync.Pool, so steady-state parallel
// dispatch allocates nothing.
var jobPool struct {
	sync.Mutex
	head *kernelJob
}

// jobGen distinguishes job reuses for the packed-A tile caches; it starts
// handing out values at 1 so a zero cacheGen never matches.
var jobGen atomic.Uint64

func jobGet() *kernelJob {
	jobPool.Lock()
	j := jobPool.head
	if j != nil {
		jobPool.head = j.next
	}
	jobPool.Unlock()
	if j == nil {
		j = new(kernelJob)
	}
	j.gen = jobGen.Add(1)
	j.phase.Store(0)
	j.packNext.Store(0)
	j.packDone.Store(0)
	j.tileNext.Store(0)
	j.tileDone.Store(0)
	j.forNext.Store(0)
	return j
}

func jobPut(j *kernelJob) {
	j.out, j.a, j.b = nil, nil, nil
	j.forFn = nil
	j.conv = convCall{}
	jobPool.Lock()
	j.next = jobPool.head
	jobPool.head = j
	jobPool.Unlock()
}

// wait blocks (spinning; the reserved workers finish promptly once the work
// runs dry) until every pool worker has exited the job, after which the job
// may be recycled.
func (j *kernelJob) wait() {
	for j.runners.Load() != 0 {
		runtime.Gosched()
	}
}

func (j *kernelJob) run(s *gemmScratch) {
	switch j.kind {
	case kindGemm:
		j.runGemm(s)
	case kindFor:
		j.runFor()
	case kindConv:
		j.runConv(s)
	}
}

func (j *kernelJob) runFor() {
	n := int64(j.forN)
	for {
		i := j.forNext.Add(1) - 1
		if i >= n {
			return
		}
		j.forFn(int(i))
	}
}

// ParallelFor runs fn(i) for every i in [0, n), claiming indices dynamically
// across the kernel worker pool within the SetKernelParallelism budget (so
// unevenly sized iterations load-balance). fn must be safe for concurrent
// invocation on distinct indices and must not call back into a parallel
// kernel entry point. Callers decide whether n·(work per index) is large
// enough to be worth the dispatch; below budget 2 it degenerates to a plain
// loop.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := KernelParallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := jobGet()
	j.kind = kindFor
	j.forN = n
	j.forFn = fn
	poolSubmit(j, workers-1)
	j.runFor()
	j.wait()
	jobPut(j)
}
