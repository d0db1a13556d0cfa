package transport

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compress"
)

// Regression for the eager O(N) codec allocation: a session sized for
// 100k slots must hold only a pointer per slot until a client's join
// handshake actually negotiates, and buffer memory must then scale with
// joined clients, not potential slots.
func TestSessionCodecLazyAllocation(t *testing.T) {
	var c sessionCodec
	c.init(CodecPolicy{Broadcast: compress.SchemeInt8, Update: compress.SchemeInt8, Delta: compress.SchemeInt8}, 7, 100000)
	if got := c.allocated(); got != 0 {
		t.Fatalf("allocated() = %d after init, want 0", got)
	}
	caps := compress.CapsOf(compress.SchemeInt8)
	for _, i := range []int{0, 41_213, 99_999} {
		c.negotiate(i, caps)
	}
	if got := c.allocated(); got != 3 {
		t.Fatalf("allocated() = %d after 3 joins, want 3", got)
	}
	// Re-negotiating an existing slot must not allocate another.
	c.negotiate(0, caps)
	if got := c.allocated(); got != 3 {
		t.Fatalf("allocated() = %d after re-join, want 3", got)
	}
	if c.slots[1] != nil {
		t.Fatal("slot 1 has allocated state without ever joining")
	}
	// slot() itself is the only allocation point, and only on first touch.
	if avg := testing.AllocsPerRun(100, func() { c.slot(41_213) }); avg != 0 {
		t.Fatalf("slot() on an allocated slot allocates %.1f objects/op, want 0", avg)
	}
}

// ioParallel must visit every slot exactly once while never exceeding its
// worker budget — the bounded-goroutine contract the connection core
// relies on at 100k slots.
func TestIOParallelBoundedAndComplete(t *testing.T) {
	const n, workers = 10_000, 7
	visits := make([]int32, n)
	var inFlight, peak atomic.Int32
	ioParallel(n, workers, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		atomic.AddInt32(&visits[i], 1)
		inFlight.Add(-1)
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("slot %d visited %d times, want 1", i, v)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent slots, budget is %d", p, workers)
	}

	// n == 0 and workers > n degenerate cases must not hang or panic.
	ioParallel(0, 4, func(int) { t.Fatal("fn called for n=0") })
	var mu sync.Mutex
	seen := map[int]bool{}
	ioParallel(3, 64, func(i int) { mu.Lock(); seen[i] = true; mu.Unlock() })
	if len(seen) != 3 {
		t.Fatalf("visited %d of 3 slots with oversized pool", len(seen))
	}
}
