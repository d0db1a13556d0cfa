package traceview

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"
)

// Waterfall renders one ASCII waterfall per round span: every span in the
// round's subtree as a time-proportional bar, the critical path marked with
// '#' bars and a '*' prefix, and a straggler-attribution line naming the
// client the round waited on. Ledger lines, when given, annotate each round
// header with loss and wire bytes. width is the bar area in columns (0
// means 64).
//
// Async sessions add two visual distinctions: spans that overran the round
// (stragglers whose delivery the round stopped waiting for — their update is
// buffered) render with '~' bars and a '~' prefix, and zero-width late_fold
// spans (a parked update folded into this round's aggregate) render with a
// '+' prefix. Neither participates in critical-path or straggler
// attribution, since the round's wall time never waited on them.
func Waterfall(w io.Writer, spans []Span, ledger []LedgerLine, width int) error {
	if width <= 0 {
		width = 64
	}
	t := buildTree(spans)
	rounds := t.roundSpans()
	if len(rounds) == 0 {
		return fmt.Errorf("traceview: no round spans in trace")
	}
	byRoundAttempt := map[[2]int]*LedgerLine{}
	attempt := map[int]int{}
	for i := range ledger {
		l := &ledger[i]
		byRoundAttempt[[2]int{l.Round, l.Attempt}] = l
	}
	for ri, r := range rounds {
		roundNo := -1
		if r.Round != nil {
			roundNo = *r.Round
		}
		attempt[roundNo]++
		if ri > 0 {
			fmt.Fprintln(w)
		}
		header := fmt.Sprintf("round %d", roundNo)
		if a := attempt[roundNo]; a > 1 {
			header += fmt.Sprintf(" (attempt %d)", a)
		}
		header += " — " + fmtDur(r.DurNS)
		if l := byRoundAttempt[[2]int{roundNo, attempt[roundNo]}]; l != nil {
			if l.Loss != nil {
				header += fmt.Sprintf("  loss %.4f", *l.Loss)
			}
			header += fmt.Sprintf("  up %s  down %s", fmtBytes(l.UpBytes), fmtBytes(l.DownBytes))
			if l.Elided > 0 {
				header += fmt.Sprintf(" (%d models elided)", l.Elided)
			}
			if !l.OK {
				header += "  FAILED"
			}
			if len(l.Evicted) > 0 {
				header += fmt.Sprintf("  evicted %v", l.Evicted)
			}
			if len(l.LateID) > 0 {
				header += fmt.Sprintf("  late folds %v (ages %v)", l.LateID, l.LateAge)
			}
			if l.DeadlineSec > 0 {
				header += fmt.Sprintf("  deadline %s", fmtDur(int64(l.DeadlineSec*1e9)))
			}
		}
		fmt.Fprintln(w, header)

		order, depths := t.subtree(r)
		onPath := map[string]bool{}
		for _, s := range t.criticalPath(r) {
			onPath[s.Span] = true
		}
		for i, s := range order {
			label := s.Name
			if s.Client != nil {
				label += fmt.Sprintf(" c%d", *s.Client)
			}
			mark := " "
			bar := byte('-')
			switch {
			case onPath[s.Span]:
				mark, bar = "*", '#'
			case s.EndNS() > r.EndNS():
				mark, bar = "~", '~' // overran the round; delivery buffered
			case s.Name == "late_fold":
				mark = "+" // parked update folded into this round
			}
			fmt.Fprintf(w, "  %s%-28s %9s |%s|\n",
				mark, strings.Repeat("  ", depths[i])+label,
				fmtDur(s.DurNS), barFor(s, r, width, bar))
		}

		var names []string
		for _, s := range t.criticalPath(r) {
			n := s.Name
			if s.Client != nil {
				n += fmt.Sprintf("(c%d)", *s.Client)
			}
			names = append(names, n)
		}
		fmt.Fprintf(w, "  critical path: %s\n", strings.Join(names, " > "))
		if sg := straggler(order, r.EndNS()); sg != nil && r.DurNS > 0 {
			pct := 100 * float64(sg.EndNS()-r.StartNS) / float64(r.DurNS)
			fmt.Fprintf(w, "  straggler: client %d finished last (%s %s, %.0f%% of round)\n",
				*sg.Client, sg.Name, fmtDur(sg.DurNS), pct)
		}
	}
	return nil
}

// barFor positions s inside r's timeline, clamped so rounding never walks
// off the bar area.
func barFor(s, r *Span, width int, fill byte) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = ' '
	}
	if r.DurNS <= 0 {
		return string(b)
	}
	scale := float64(width) / float64(r.DurNS)
	start := int(float64(s.StartNS-r.StartNS) * scale)
	end := int(float64(s.EndNS()-r.StartNS) * scale)
	if start < 0 {
		start = 0
	}
	if start > width-1 {
		start = width - 1
	}
	if end <= start {
		end = start + 1
	}
	if end > width {
		end = width
	}
	for i := start; i < end; i++ {
		b[i] = fill
	}
	return string(b)
}

// Summary renders the run ledger as one table row per round attempt.
func Summary(w io.Writer, ledger []LedgerLine) error {
	if len(ledger) == 0 {
		return fmt.Errorf("traceview: empty ledger")
	}
	fmt.Fprintf(w, "run: %s, %d round attempts\n", ledger[0].Algo, len(ledger))
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tattempt\tok\tloss\tdur\tup\tdown\telided\tclients\tmean_mmd\tstale\tevicted\trejoins")
	for i := range ledger {
		l := &ledger[i]
		loss := "-"
		if l.Loss != nil {
			loss = fmt.Sprintf("%.4f", *l.Loss)
		}
		mmd := "-"
		if m := l.MeanMMD(); !math.IsNaN(m) {
			if len(l.MMDSample) > 0 {
				mmd = fmt.Sprintf("~%.4f", m) // sampled sub-matrix estimate
			} else {
				mmd = fmt.Sprintf("%.4f", m)
			}
		}
		clients := len(l.ClientID)
		if clients == 0 {
			clients = l.Cohort // summary-mode lines carry a count, not IDs
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\n",
			l.Round, l.Attempt, l.OK, loss, fmtDur(l.DurNS),
			fmtBytes(l.UpBytes), fmtBytes(l.DownBytes), l.Elided, clients,
			mmd, l.StaleRows, len(l.Evicted), l.Rejoins)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var up, down int64
	for i := range ledger {
		up += ledger[i].UpBytes
		down += ledger[i].DownBytes
	}
	fmt.Fprintf(w, "total wire: %s up, %s down\n", fmtBytes(up), fmtBytes(down))
	return nil
}

// Compare renders two runs' ledgers side by side: per-round wire volume
// (the Table III communication claim) and the MMD trajectory (the
// regularization claim). Rounds are aligned by round number; failed
// attempts are skipped so retries don't misalign the runs.
func Compare(w io.Writer, a, b []LedgerLine) error {
	oa, ob := okByRound(a), okByRound(b)
	if len(oa) == 0 || len(ob) == 0 {
		return fmt.Errorf("traceview: nothing to compare (a: %d ok rounds, b: %d ok rounds)", len(oa), len(ob))
	}
	nameA, nameB := a[0].Algo, b[0].Algo
	fmt.Fprintf(w, "comparing %s (a) vs %s (b)\n", nameA, nameB)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tbytes(a)\tbytes(b)\ta/b\tloss(a)\tloss(b)\tmmd(a)\tmmd(b)")
	var rounds []int
	for r := range oa {
		if _, ok := ob[r]; ok {
			rounds = append(rounds, r)
		}
	}
	sortInts(rounds)
	var totA, totB int64
	for _, r := range rounds {
		la, lb := oa[r], ob[r]
		ba, bb := la.UpBytes+la.DownBytes, lb.UpBytes+lb.DownBytes
		totA += ba
		totB += bb
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t%s\t%s\t%s\t%s\n",
			r, fmtBytes(ba), fmtBytes(bb), ratio(ba, bb),
			fmtLoss(la.Loss), fmtLoss(lb.Loss), fmtMMD(la), fmtMMD(lb))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "total wire: a=%s b=%s (a/b %.2f)\n", fmtBytes(totA), fmtBytes(totB), ratio(totA, totB))

	// Straggler delta: per-round wall clock side by side with the late-fold
	// counts, so an async run's critical-path win over a sync run under the
	// same fault plan is visible in one table.
	fmt.Fprintln(w, "straggler delta (per-round wall clock, late folds):")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "round\tdur(a)\tdur(b)\tdur a/b\tlate(a)\tlate(b)")
	var durA, durB int64
	for _, r := range rounds {
		la, lb := oa[r], ob[r]
		durA += la.DurNS
		durB += lb.DurNS
		fmt.Fprintf(tw, "%d\t%s\t%s\t%.2f\t%d\t%d\n",
			r, fmtDur(la.DurNS), fmtDur(lb.DurNS), ratio(la.DurNS, lb.DurNS),
			len(la.LateID), len(lb.LateID))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "total wall clock: a=%s b=%s (a/b %.2f)\n", fmtDur(durA), fmtDur(durB), ratio(durA, durB))
	return nil
}

// okByRound keeps each round's successful attempt.
func okByRound(lines []LedgerLine) map[int]*LedgerLine {
	m := map[int]*LedgerLine{}
	for i := range lines {
		if lines[i].OK {
			m[lines[i].Round] = &lines[i]
		}
	}
	return m
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

func fmtLoss(l *float64) string {
	if l == nil {
		return "-"
	}
	return fmt.Sprintf("%.4f", *l)
}

func fmtMMD(l *LedgerLine) string {
	if m := l.MeanMMD(); !math.IsNaN(m) {
		return fmt.Sprintf("%.4f", m)
	}
	return "-"
}

func fmtDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
