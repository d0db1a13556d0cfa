package main

import (
	"runtime"
	"sync"
	"time"
)

// The recording box runs every core 20–30 % slower for minutes at a time
// when its neighbours are busy, and everything slows together: compute-bound
// and syscall-bound workloads, wall time and CPU time, set-up and rounds. A
// fixed arithmetic kernel timed next to every pass tracks that (correlation
// 0.75 over 36 runs) and dividing by it halves the run-to-run spread of every
// timing, so the gated timings are reported at the reference box speed.

const (
	// calibRefMS is the kernel's 5th-percentile time on the quiet recording
	// box; a run whose kernel takes twice that reports half its raw times.
	calibRefMS = 2.45
	// calibSlices is how many times the kernel runs before each pass.
	calibSlices = 40
)

var calibSink float64 // keeps the kernel's result live

// calibrate times the kernel once: a fixed multiply-add sweep over a
// cache-resident slice on every core at once, as the workloads load them.
func calibrate() float64 {
	var wg sync.WaitGroup
	sums := make([]float64, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := make([]float64, 32<<10)
			acc := 0.0
			for it := 0; it < 120; it++ {
				for i := range b {
					b[i] = b[i]*0.999 + 1
					acc += b[i]
				}
			}
			sums[g] = acc
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	calibSink = sums[0]
	return ms(d)
}
