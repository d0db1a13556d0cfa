// Package traceview reads the JSONL trace and run-ledger files the
// telemetry layer writes and renders them for humans: per-round ASCII
// waterfalls with critical-path and straggler attribution, run summary
// tables, and two-run comparisons. It is the analysis half of the
// observability layer — cmd/fltrace is a thin CLI over it.
//
// Unlike the write path, which is allocation-free by contract, this package
// runs offline over finished files and uses encoding/json freely.
package traceview

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Span is one decoded trace line. IDs are the hex strings the tracer
// emitted; Round and Client are nil when the span carried no attribute.
type Span struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent"`
	Name    string `json:"name"`
	Round   *int   `json:"round"`
	Client  *int   `json:"client"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// EndNS is the span's end timestamp.
func (s *Span) EndNS() int64 { return s.StartNS + s.DurNS }

// LedgerLine is one decoded run-ledger record.
type LedgerLine struct {
	Algo       string    `json:"algo"`
	Round      int       `json:"round"`
	Attempt    int       `json:"attempt"`
	OK         bool      `json:"ok"`
	Loss       *float64  `json:"loss"`
	DurNS      int64     `json:"dur_ns"`
	UpBytes    int64     `json:"up_bytes"`
	DownBytes  int64     `json:"down_bytes"`
	Elided     int       `json:"elided"` // assignments sent without the model the client already held
	ClientID   []int     `json:"client_id"`
	ClientLoss []float64 `json:"client_loss"`
	ClientNorm []float64 `json:"client_norm"`
	// Summary-mode fields (runs above the ledger's detail threshold):
	// cohort size plus [min, mean, max] triples instead of per-client
	// arrays, and the δ rows behind a sampled MMD sub-matrix.
	Cohort    int       `json:"cohort"`
	LossStats []float64 `json:"loss_stats"`
	NormStats []float64 `json:"norm_stats"`
	AgeStats  []float64 `json:"age_stats"`
	MMDSample []int     `json:"mmd_sample"`
	MMDDim    int       `json:"mmd_dim"`
	MMD       []float64 `json:"mmd"`
	DeltaAges []int     `json:"delta_ages"`
	StaleRows int       `json:"stale_rows"`
	Evicted   []int     `json:"evicted"`
	Rejoins   int       `json:"rejoins"`
	// Async-mode fields: parked updates folded late into this round's
	// aggregate (LateAge aligned with LateID) and the deadline in force.
	LateID      []int   `json:"late_id"`
	LateAge     []int   `json:"late_age"`
	DeadlineSec float64 `json:"deadline_sec"`
	// Health-monitor fields: per-client scores aligned with ClientID
	// (detail mode) or a [min, mean, max] triple (summary mode), plus the
	// round verdict and unhealthy count.
	Health      []float64 `json:"health"`
	HealthStats []float64 `json:"health_stats"`
	Verdict     string    `json:"verdict"`
	Unhealthy   int       `json:"unhealthy"`
	// PhaseMS is the attempt's milliseconds in each of its phases.
	PhaseMS map[string]float64 `json:"phase_ms"`
}

// MeanMMD is the mean off-diagonal entry of the record's pairwise MMD
// matrix, or NaN when the record has none.
func (l *LedgerLine) MeanMMD() float64 {
	n := l.MMDDim
	if n < 2 || len(l.MMD) != n*n {
		return nan()
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += l.MMD[i*n+j]
			}
		}
	}
	return sum / float64(n*(n-1))
}

func nan() float64 {
	var z float64
	return z / z
}

// ReadSpans decodes a JSONL trace stream.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var spans []Span
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("traceview: trace line %d: %w", line, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// ReadLedger decodes a JSONL run-ledger stream.
func ReadLedger(r io.Reader) ([]LedgerLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var lines []LedgerLine
	n := 0
	for sc.Scan() {
		n++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l LedgerLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("traceview: ledger line %d: %w", n, err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// ReadSpansFile reads a trace file from disk.
func ReadSpansFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpans(f)
}

// ReadLedgerFile reads a run-ledger file from disk.
func ReadLedgerFile(path string) ([]LedgerLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLedger(f)
}

// tree indexes a span set for rendering.
type tree struct {
	byID     map[string]*Span
	children map[string][]*Span
}

func buildTree(spans []Span) *tree {
	t := &tree{byID: map[string]*Span{}, children: map[string][]*Span{}}
	for i := range spans {
		s := &spans[i]
		t.byID[s.Span] = s
	}
	for i := range spans {
		s := &spans[i]
		t.children[s.Parent] = append(t.children[s.Parent], s)
	}
	for _, kids := range t.children {
		sort.Slice(kids, func(a, b int) bool {
			if kids[a].StartNS != kids[b].StartNS {
				return kids[a].StartNS < kids[b].StartNS
			}
			return kids[a].Span < kids[b].Span
		})
	}
	return t
}

// roundSpans returns the trace's round spans in round order. Retried rounds
// produce one span per attempt, kept in start order.
func (t *tree) roundSpans() []*Span {
	var rounds []*Span
	for _, s := range t.byID {
		if s.Name == "round" {
			rounds = append(rounds, s)
		}
	}
	sort.Slice(rounds, func(a, b int) bool {
		ra, rb := -1, -1
		if rounds[a].Round != nil {
			ra = *rounds[a].Round
		}
		if rounds[b].Round != nil {
			rb = *rounds[b].Round
		}
		if ra != rb {
			return ra < rb
		}
		return rounds[a].StartNS < rounds[b].StartNS
	})
	return rounds
}

// subtree returns root plus all descendants in depth-first pre-order,
// paired with each span's depth below root.
func (t *tree) subtree(root *Span) ([]*Span, []int) {
	var order []*Span
	var depths []int
	var walk func(s *Span, d int)
	walk = func(s *Span, d int) {
		order = append(order, s)
		depths = append(depths, d)
		for _, c := range t.children[s.Span] {
			walk(c, d+1)
		}
	}
	walk(root, 0)
	return order, depths
}

// criticalPath walks from root toward the latest-finishing child at every
// level: the chain of spans the round's wall time actually waited on.
// Spans that end after the root does — async stragglers whose delivery the
// round stopped waiting for — are excluded: the round did not wait on them.
func (t *tree) criticalPath(root *Span) []*Span {
	path := []*Span{root}
	end := root.EndNS()
	cur := root
	for {
		var last *Span
		for _, k := range t.children[cur.Span] {
			if k.EndNS() > end {
				continue // overran the round: buffered, not waited on
			}
			if last == nil || k.EndNS() > last.EndNS() {
				last = k
			}
		}
		if last == nil {
			return path
		}
		path = append(path, last)
		cur = last
	}
}

// straggler finds the per-client span that finished last in the round's
// subtree — the client the round waited on. Client-side spans (client_round)
// are preferred over the server's wait spans (gather_client) when present.
// Spans ending after endNS (async overruns) are excluded: the round closed
// without them, so they did not gate its wall time.
func straggler(order []*Span, endNS int64) *Span {
	var best *Span
	pick := func(name string) *Span {
		var s *Span
		for _, c := range order {
			if c.Name != name || c.Client == nil || c.EndNS() > endNS {
				continue
			}
			if s == nil || c.EndNS() > s.EndNS() {
				s = c
			}
		}
		return s
	}
	if best = pick("client_round"); best == nil {
		best = pick("gather_client")
	}
	return best
}
