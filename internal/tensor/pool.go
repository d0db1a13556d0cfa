package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the kernel worker pool: up to NumCPU long-lived goroutines,
// started lazily up to the count a call requests, each blocked on one shared
// unbuffered channel and owning its own gemmScratch. A parallel kernel call
// fills a kernelJob with a number of independent tasks (GEMM bands, conv
// samples, ParallelFor indices), offers the job to idle workers without
// blocking, and claims tasks itself alongside whichever workers took it. A
// worker that is busy is simply not recruited, so concurrent callers
// degrade toward serial instead of queueing, and no task ever waits on
// another: the pool is deadlock-free at any GOMAXPROCS.
//
// Jobs are reused through a free list (jobPool), so steady-state parallel
// dispatch performs zero allocations — the same invariant the serial path
// keeps (see DESIGN.md, "Memory model & buffer ownership").

// poolJobs is where idle workers wait for a job; poolStarted counts the
// workers started so far.
var (
	poolJobs    = make(chan *kernelJob)
	poolStarted atomic.Int32
)

// poolStart makes sure min(n, NumCPU) workers have been started.
func poolStart(n int) {
	n = min(n, runtime.NumCPU())
	for {
		c := poolStarted.Load()
		if int(c) >= n {
			return
		}
		if poolStarted.CompareAndSwap(c, c+1) {
			go poolWorker()
		}
	}
}

func poolWorker() {
	s := new(gemmScratch)
	for j := range poolJobs {
		j.run(s)
		j.runners.Done()
	}
}

// poolSubmit offers j to up to extra idle workers, stopping at the first
// offer no idle worker takes. Each offer adds its runner before the send, so
// j.runners.Wait cannot return before a worker that took the job is done
// with it.
func poolSubmit(j *kernelJob, extra int) {
	poolStart(extra)
	for ; extra > 0; extra-- {
		j.runners.Add(1)
		select {
		case poolJobs <- j:
		default:
			j.runners.Done()
			return
		}
	}
}

// Job kinds.
const (
	kindGemm = int32(iota)
	kindFor
	kindConv
)

// kernelJob is one parallel kernel invocation: tasks independent tasks of
// one kind, claimed through next by the caller and the workers that took
// the job. The other fields are written by the caller before poolSubmit
// hands the job over and are read-only afterwards.
type kernelJob struct {
	kind  int32
	tasks int
	next  atomic.Int64

	gemm    gemmCall    // kindGemm: task i is output band i
	forFn   func(i int) // kindFor: task i is forFn(i)
	conv    convCall    // kindConv: task i is sample i
	runners sync.WaitGroup
	free    *kernelJob
}

// jobPool is the kernelJob free list; like gemmPool it is a deterministic
// mutex-guarded stack rather than a sync.Pool, so steady-state parallel
// dispatch allocates nothing.
var jobPool struct {
	sync.Mutex
	head *kernelJob
}

func jobGet(kind int32, tasks int) *kernelJob {
	jobPool.Lock()
	j := jobPool.head
	if j != nil {
		jobPool.head = j.free
	}
	jobPool.Unlock()
	if j == nil {
		j = new(kernelJob)
	}
	j.kind, j.tasks = kind, tasks
	j.next.Store(0)
	return j
}

// fanOut runs j's tasks on the caller, with scratch s, and on up to
// workers−1 pool workers, waits for every worker to leave the job and
// recycles it.
func (j *kernelJob) fanOut(workers int, s *gemmScratch) {
	poolSubmit(j, workers-1)
	j.run(s)
	j.runners.Wait()
	j.gemm, j.forFn, j.conv = gemmCall{}, nil, convCall{}
	jobPool.Lock()
	j.free = jobPool.head
	jobPool.head = j
	jobPool.Unlock()
}

// run claims tasks one at a time until none is left.
func (j *kernelJob) run(s *gemmScratch) {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.tasks {
			return
		}
		switch j.kind {
		case kindGemm:
			j.gemm.band(i, s)
		case kindFor:
			j.forFn(i)
		case kindConv:
			j.conv.sample(i, s)
		}
	}
}

// ParallelFor runs fn(i) for every i in [0, n), claiming indices dynamically
// across the kernel worker pool within the SetKernelParallelism budget (so
// unevenly sized iterations load-balance). fn must be safe for concurrent
// invocation on distinct indices. Callers decide whether n·(work per index)
// is large enough to be worth the dispatch; below budget 2 it degenerates to
// a plain loop.
func ParallelFor(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := min(KernelParallelism(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := jobGet(kindFor, n)
	j.forFn = fn
	j.fanOut(workers, nil)
}
