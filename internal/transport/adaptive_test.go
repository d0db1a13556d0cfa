package transport

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

func newTestController(n int, initial, minD, maxD time.Duration) (*deadlineController, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	m := newServerMetrics(reg, AlgoFedAvg)
	return newDeadlineController(n, initial, minD, maxD, m), reg
}

func TestDeadlineControllerTracksQuantile(t *testing.T) {
	ctrl, _ := newTestController(4, time.Second, 50*time.Millisecond, 2*time.Second)
	if got := ctrl.current(); got != time.Second {
		t.Fatalf("initial deadline %v, want 1s", got)
	}
	// Nothing observed: update keeps the current deadline.
	if got := ctrl.update(); got != time.Second {
		t.Fatalf("update with no observations moved the deadline to %v", got)
	}

	// The first sample bounds a client at SRTT + 4·RTTVAR = 3R.
	for c := 0; c < 4; c++ {
		ctrl.observe(c, 100*time.Millisecond)
	}
	if got := ctrl.update(); got != 300*time.Millisecond {
		t.Fatalf("first-sample deadline %v, want 3 × 100ms", got)
	}

	// A uniformly fast, steady fleet's deviation decays by (1−β) a round:
	// the deadline falls to the least margin, 1.5 × the round-trip.
	for round := 0; round < 20; round++ {
		for c := 0; c < 4; c++ {
			ctrl.observe(c, 100*time.Millisecond)
		}
		ctrl.update()
	}
	const want = 150 * time.Millisecond
	near := func(d time.Duration) bool { return d >= want && d < want+2*time.Millisecond }
	if got := ctrl.current(); !near(got) {
		t.Fatalf("converged deadline %v, want ≈%v", got, want)
	}

	// A steady client just above the quantile stays covered: bounds of a
	// 100/100/100/110 ms fleet pick the third (150 ms), above 110 ms.
	for round := 0; round < 40; round++ {
		for c := 0; c < 3; c++ {
			ctrl.observe(c, 100*time.Millisecond)
		}
		ctrl.observe(3, 110*time.Millisecond)
		ctrl.update()
	}
	if got := ctrl.current(); got < 110*time.Millisecond {
		t.Fatalf("steady 100/100/100/110ms fleet: deadline %v evicts the 110ms client", got)
	}

	// A single straggler stays above the 0.9-quantile of a 4-client fleet
	// (q = int(0.9·3) = 2): the deadline must NOT chase the worst client.
	for round := 0; round < 40; round++ {
		for c := 0; c < 3; c++ {
			ctrl.observe(c, 100*time.Millisecond)
		}
		ctrl.observe(3, 10*time.Second)
		ctrl.update()
	}
	if got := ctrl.current(); !near(got) {
		t.Fatalf("one straggler dragged the deadline to %v, want it held at ≈%v", got, want)
	}

	// When half the fleet is slow the quantile covers them: the deadline
	// rises, clamped at the 2s ceiling.
	for round := 0; round < 40; round++ {
		ctrl.observe(0, 100*time.Millisecond)
		ctrl.observe(1, 100*time.Millisecond)
		ctrl.observe(2, 10*time.Second)
		ctrl.observe(3, 10*time.Second)
		ctrl.update()
	}
	if got := ctrl.current(); got != 2*time.Second {
		t.Fatalf("slow-half deadline %v, want the 2s ceiling", got)
	}
}

func TestDeadlineControllerClampsToFloor(t *testing.T) {
	ctrl, _ := newTestController(2, time.Second, 200*time.Millisecond, 2*time.Second)
	for round := 0; round < 20; round++ {
		ctrl.observe(0, time.Millisecond)
		ctrl.observe(1, time.Millisecond)
		ctrl.update()
	}
	if got := ctrl.current(); got != 200*time.Millisecond {
		t.Fatalf("deadline %v, want clamped to the 200ms floor", got)
	}
}

// The controller sits on the per-round hot path next to the
// allocation-free telemetry: observing and retargeting must not allocate.
func TestDeadlineControllerZeroAlloc(t *testing.T) {
	ctrl, _ := newTestController(16, time.Second, 10*time.Millisecond, 10*time.Second)
	// Pre-touch every slot so the steady state is measured.
	for c := 0; c < 16; c++ {
		ctrl.observe(c, time.Duration(c+1)*10*time.Millisecond)
	}
	ctrl.update()

	allocs := testing.AllocsPerRun(200, func() {
		for c := 0; c < 16; c++ {
			ctrl.observe(c, time.Duration(c+1)*11*time.Millisecond)
		}
		ctrl.update()
		ctrl.current()
	})
	if allocs != 0 {
		t.Fatalf("controller round allocated %.1f times, want 0", allocs)
	}
}
