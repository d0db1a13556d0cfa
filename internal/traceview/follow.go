package traceview

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Follower incrementally tails a run's observer stream while the run is
// still writing it, and renders a live text dashboard: round progress with a
// loss sparkline, the top-N unhealthiest clients, and active alerts. Poll
// reads only the bytes appended since the last call and tolerates a file
// that does not exist yet or ends mid-line, so a dashboard can attach before
// the run's first round completes.
type Follower struct {
	path    string
	topN    int
	off     int64
	partial []byte // trailing partial line awaiting its newline
	s       Stream
}

// NewFollower tails the stream at path. topN bounds the unhealthiest-clients
// table (0 means 8).
func NewFollower(path string, topN int) *Follower {
	if topN <= 0 {
		topN = 8
	}
	return &Follower{path: path, topN: topN}
}

// Poll reads any newly appended lines. It returns true when at least one new
// complete line arrived. A missing file is not an error — the run may not
// have created it yet.
func (f *Follower) Poll() (bool, error) {
	grew, err := tailJSONL(f.path, &f.off, &f.partial, f.s.add)
	f.s.Spans = nil // the dashboard draws no spans: hold none
	return grew, err
}

// tailJSONL reads the bytes of path past *off, carries a trailing partial
// line in *partial, and hands each complete line to emit.
func tailJSONL(path string, off *int64, partial *[]byte, emit func([]byte) error) (bool, error) {
	fh, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	defer fh.Close()
	if _, err := fh.Seek(*off, io.SeekStart); err != nil {
		return false, err
	}
	data, err := io.ReadAll(fh)
	if err != nil {
		return false, err
	}
	if len(data) == 0 {
		return false, nil
	}
	*off += int64(len(data))
	buf := append(*partial, data...)
	grew := false
	for {
		nl := -1
		for i, c := range buf {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break
		}
		line := buf[:nl]
		buf = buf[nl+1:]
		if len(line) == 0 {
			continue
		}
		if err := emit(line); err != nil {
			return grew, fmt.Errorf("traceview: %s: %w", path, err)
		}
		grew = true
	}
	*partial = append((*partial)[:0], buf...)
	return grew, nil
}

// Done reports whether the run has ended: the last run_start or run_done
// event read is a run_done. A resumed server session appends to the stream
// of the session it resumes, so a run_done may be followed by a new
// run_start.
func (f *Follower) Done() bool {
	for i := len(f.s.Events) - 1; i >= 0; i-- {
		switch f.s.Events[i].Event {
		case "run_done":
			return true
		case "run_start":
			return false
		}
	}
	return false
}

// Rounds returns the number of round lines read so far.
func (f *Follower) Rounds() int { return len(f.s.Rounds) }

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals as a fixed-width block-character strip, sampling
// the most recent width values.
func sparkline(vals []float64, width int) string {
	if len(vals) > width {
		vals = vals[len(vals)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	var b strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) {
			b.WriteByte(' ')
			continue
		}
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// clientHealth is one row of the unhealthiest-clients table.
type clientHealth struct {
	id    int
	score float64 // NaN when the run has no health scores (falls back to norm rank)
	loss  float64
	norm  float64
	round int
}

// Render writes one dashboard frame. It renders from whatever has been
// polled so far — an empty frame before the first round is valid output.
func (f *Follower) Render(w io.Writer, width int) error {
	if width <= 0 {
		width = 100
	}
	if len(f.s.Rounds) == 0 {
		fmt.Fprintln(w, "waiting for the first round line…")
		return nil
	}
	last := &f.s.Rounds[len(f.s.Rounds)-1]
	verdict := last.Verdict
	if verdict == "" {
		verdict = "-"
	}
	loss := math.NaN()
	if last.Loss != nil {
		loss = *last.Loss
	}
	fmt.Fprintf(w, "%s  round %d  loss %.4f  verdict %s", last.Algo, last.Round+1, loss, verdict)
	if last.Unhealthy > 0 {
		fmt.Fprintf(w, "  unhealthy %d", last.Unhealthy)
	}
	fmt.Fprintln(w)

	losses := make([]float64, 0, len(f.s.Rounds))
	for i := range f.s.Rounds {
		if f.s.Rounds[i].Loss != nil {
			losses = append(losses, *f.s.Rounds[i].Loss)
		}
	}
	if sl := sparkline(losses, width-8); sl != "" {
		fmt.Fprintf(w, "loss    %s\n", sl)
	}
	cohort := last.Cohort
	if cohort == 0 {
		cohort = len(last.ClientID)
	}
	fmt.Fprintf(w, "cohort %d  up %s  down %s", cohort, fmtBytes(last.UpBytes), fmtBytes(last.DownBytes))
	if len(last.HealthStats) == 3 {
		fmt.Fprintf(w, "  health [%.2f %.2f %.2f]", last.HealthStats[0], last.HealthStats[1], last.HealthStats[2])
	}
	if len(last.Evicted) > 0 {
		fmt.Fprintf(w, "  evicted %v", last.Evicted)
	}
	if len(last.LateID) > 0 {
		fmt.Fprintf(w, "  folds %d", len(last.LateID))
	}
	fmt.Fprintln(w)

	if rows := f.worstClients(); len(rows) > 0 {
		fmt.Fprintf(w, "\n%-8s %8s %10s %10s %6s\n", "client", "score", "loss", "norm", "round")
		for _, r := range rows {
			score := "-"
			if !math.IsNaN(r.score) {
				score = fmt.Sprintf("%.3f", r.score)
			}
			fmt.Fprintf(w, "%-8d %8s %10.4f %10.4f %6d\n", r.id, score, r.loss, r.norm, r.round+1)
		}
	}

	if alerts := f.activeAlerts(); len(alerts) > 0 {
		fmt.Fprintln(w, "\nalerts:")
		for _, e := range alerts {
			fmt.Fprintf(w, "  [round %d] %s\n", e.Round+1, e.Detail)
		}
	}
	if tail := f.eventsTail(5); len(tail) > 0 {
		fmt.Fprintln(w, "\nevents:")
		for _, e := range tail {
			fmt.Fprintf(w, "  [round %d] %-12s %s\n", e.Round+1, e.Event, e.Detail)
		}
	}
	if f.Done() {
		fmt.Fprintln(w, "\nrun complete")
	}
	return nil
}

// worstClients builds the top-N unhealthiest table from each client's most
// recent detail-mode ledger appearance. Runs without health scores fall
// back to ranking by update norm (largest first).
func (f *Follower) worstClients() []clientHealth {
	latest := map[int]clientHealth{}
	for i := range f.s.Rounds {
		l := &f.s.Rounds[i]
		for j, id := range l.ClientID {
			ch := clientHealth{id: id, score: math.NaN(), round: l.Round}
			if j < len(l.ClientLoss) {
				ch.loss = l.ClientLoss[j]
			}
			if j < len(l.ClientNorm) {
				ch.norm = l.ClientNorm[j]
			}
			if j < len(l.Health) {
				ch.score = l.Health[j]
			}
			latest[id] = ch
		}
	}
	if len(latest) == 0 {
		return nil
	}
	rows := make([]clientHealth, 0, len(latest))
	for _, ch := range latest {
		rows = append(rows, ch)
	}
	sort.Slice(rows, func(a, b int) bool {
		sa, sb := rows[a].score, rows[b].score
		switch {
		case !math.IsNaN(sa) && !math.IsNaN(sb) && sa != sb:
			return sa < sb
		case math.IsNaN(sa) != math.IsNaN(sb):
			return !math.IsNaN(sa)
		case rows[a].norm != rows[b].norm:
			return rows[a].norm > rows[b].norm
		}
		return rows[a].id < rows[b].id
	})
	if len(rows) > f.topN {
		rows = rows[:f.topN]
	}
	return rows
}

// activeAlerts returns the health_alert events of the last ledgered round
// window (the most recent 10 rounds), newest last.
func (f *Follower) activeAlerts() []EventLine {
	if len(f.s.Rounds) == 0 {
		return nil
	}
	floor := f.s.Rounds[len(f.s.Rounds)-1].Round - 10
	var out []EventLine
	for _, e := range f.s.Events {
		if e.Event == "health_alert" && e.Round >= floor {
			out = append(out, e)
		}
	}
	if len(out) > 8 {
		out = out[len(out)-8:]
	}
	return out
}

// eventsTail returns the newest n non-alert events.
func (f *Follower) eventsTail(n int) []EventLine {
	var out []EventLine
	for _, e := range f.s.Events {
		if e.Event != "health_alert" {
			out = append(out, e)
		}
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
