// Command fltrace renders the observer stream that flsim, flserver and
// flclient write (-observe) into human-readable reports:
//
//   - When the stream has spans: one ASCII waterfall per round, every span
//     in the round's subtree drawn as a time-proportional bar. The critical
//     path — the chain of spans the round's wall time actually waited on —
//     is marked with '#' bars, a straggler line names the client the round
//     blocked on, and the round's record annotates its header with loss and
//     wire bytes. A per-round summary table follows (loss, duration, wire
//     volume, cohort size, mean pairwise MMD, staleness, faults).
//   - With -compare: instead, a side-by-side comparison of two runs,
//     per-round wire bytes and MMD trajectory — the Table III view of
//     rFedAvg vs rFedAvg+.
//   - With -follow: a live dashboard that tails a still-growing stream,
//     refreshing in place — round progress with a loss sparkline, the top-N
//     unhealthiest clients, and active health alerts. It exits when the
//     run's run_done event arrives: flsim and flserver write one as a
//     session ends, after its final model is sent or naming the error that
//     aborted it. A session resumed into the same file (flserver -resume)
//     writes a new run_start, and the dashboard follows it to its run_done.
//
// Example:
//
//	flsim -method rfedavg+ -observe a.jsonl
//	fltrace -observe a.jsonl
//	flsim -method rfedavg -observe b.jsonl
//	fltrace -observe a.jsonl -compare b.jsonl
//	flsim -method rfedavg+ -observe a.jsonl &
//	fltrace -follow -observe a.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/traceview"
)

func main() {
	var (
		path     = flag.String("observe", "", "observer stream (JSONL) to render")
		compare  = flag.String("compare", "", "second run's observer stream to compare against -observe")
		width    = flag.Int("width", 64, "waterfall bar area width in columns")
		follow   = flag.Bool("follow", false, "tail -observe live and render a refreshing dashboard")
		interval = flag.Duration("interval", time.Second, "refresh interval for -follow")
		topN     = flag.Int("top", 8, "unhealthiest clients shown by -follow")
	)
	flag.Parse()

	if *path == "" {
		fmt.Fprintln(os.Stderr, "fltrace: need -observe (see -h)")
		os.Exit(2)
	}
	if *follow {
		if err := followLoop(*path, *topN, *interval, *width); err != nil {
			fail(err)
		}
		return
	}
	s, err := traceview.ReadFile(*path)
	if err != nil {
		fail(err)
	}
	if *compare != "" {
		other, err := traceview.ReadFile(*compare)
		if err == nil {
			err = traceview.Compare(os.Stdout, s.Rounds, other.Rounds)
		}
		if err != nil {
			fail(err)
		}
		return
	}
	if len(s.Spans) > 0 {
		if err := traceview.Waterfall(os.Stdout, s.Spans, s.Rounds, *width); err != nil {
			fail(err)
		}
		fmt.Println()
	}
	if err := traceview.Summary(os.Stdout, s.Rounds); err != nil {
		fail(err)
	}
}

// followLoop polls the stream and redraws the dashboard until the run's
// run_done event arrives. The first frame renders immediately so attaching
// to a finished run is a one-shot report.
func followLoop(path string, topN int, interval time.Duration, width int) error {
	if interval <= 0 {
		interval = time.Second
	}
	f := traceview.NewFollower(path, topN)
	for {
		if _, err := f.Poll(); err != nil {
			return err
		}
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		if err := f.Render(os.Stdout, width+36); err != nil {
			return err
		}
		if f.Done() {
			return nil
		}
		time.Sleep(interval)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fltrace:", err)
	os.Exit(1)
}
