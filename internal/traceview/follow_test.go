package traceview

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFollowerPollIncremental(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f := NewFollower(path, 4)

	// The file does not exist yet: not an error, nothing read.
	grew, err := f.Poll()
	if err != nil {
		t.Fatalf("poll before the file exists: %v", err)
	}
	if grew || f.Rounds() != 0 {
		t.Fatalf("expected empty state, got grew=%v rounds=%d", grew, f.Rounds())
	}

	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	write := func(s string) {
		t.Helper()
		if _, err := fh.WriteString(s); err != nil {
			t.Fatal(err)
		}
	}

	// A span, one complete round line and the start of a second: only the
	// first round counts.
	write(`{"kind":"span","trace":"1","span":"2","name":"round","round":0,"start_ns":0,"dur_ns":5}` + "\n" +
		`{"kind":"round","algo":"rFedAvg+","round":0,"ok":true,"loss":2.3,"client_id":[0,1],"client_loss":[2.2,2.4],"client_norm":[1.0,9.0],"health":[0.9,0.2],"verdict":"warn","unhealthy":1}` + "\n" +
		`{"kind":"event","ts":"2026-08-07T00:00:00Z","event":"health_alert","round":0,"detail":"client 1 violated score\u003c0.5 (value 0.2)"}` + "\n" +
		`{"kind":"round","algo":"rFedAvg+","ro`)
	grew, err = f.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !grew || f.Rounds() != 1 || len(f.s.Events) != 1 || len(f.s.Spans) != 0 {
		t.Fatalf("after first poll: grew=%v rounds=%d events=%d spans held=%d, want true/1/1/0",
			grew, f.Rounds(), len(f.s.Events), len(f.s.Spans))
	}

	// Finish the partial line; it must reassemble into one record.
	write(`und":1,"ok":true,"loss":2.1,"verdict":"ok"}` + "\n")
	grew, err = f.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !grew || f.Rounds() != 2 {
		t.Fatalf("after second poll: grew=%v rounds=%d, want true/2", grew, f.Rounds())
	}
	if r := f.s.Rounds[1]; r.Round != 1 || r.Loss == nil || *r.Loss != 2.1 {
		t.Fatalf("partial-line record decoded wrong: %+v", r)
	}

	// The stream ends in run_done, which flips Done.
	if f.Done() {
		t.Fatal("done before run_done")
	}
	write(`{"kind":"event","ts":"2026-08-07T00:00:01Z","event":"run_done","round":1,"detail":"rFedAvg+"}` + "\n")
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if !f.Done() {
		t.Fatal("run_done not observed")
	}
	// A resumed session appends its own run_start: the run goes on until
	// that session's run_done.
	write(`{"kind":"event","ts":"2026-08-07T00:00:02Z","event":"run_start","round":-1,"detail":"rFedAvg+"}` + "\n")
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if f.Done() {
		t.Fatal("done after a resumed session's run_start")
	}
	write(`{"kind":"event","ts":"2026-08-07T00:00:03Z","event":"run_done","round":1,"detail":"rFedAvg+"}` + "\n")
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if !f.Done() {
		t.Fatal("resumed session's run_done not observed")
	}

	var sb strings.Builder
	if err := f.Render(&sb, 80); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rFedAvg+", "round 2", "loss 2.1", "verdict ok",
		"client 1 violated", "run complete",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFollowerRenderBeforeFirstRound(t *testing.T) {
	f := NewFollower(filepath.Join(t.TempDir(), "missing.jsonl"), 0)
	var sb strings.Builder
	if err := f.Render(&sb, 80); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "waiting") {
		t.Fatalf("empty frame should say waiting, got %q", sb.String())
	}
}

func TestWorstClientsOrdering(t *testing.T) {
	loss := func(v float64) *float64 { return &v }
	f := &Follower{topN: 3}
	f.s.Rounds = []LedgerLine{
		{
			Round: 0, Loss: loss(2.0),
			ClientID:   []int{0, 1, 2},
			ClientLoss: []float64{2.0, 2.1, 2.2},
			ClientNorm: []float64{1, 2, 3},
			Health:     []float64{0.9, 0.1, 0.5},
		},
		// Round 1 re-reports client 1 healthier: latest appearance wins.
		{
			Round: 1, Loss: loss(1.9),
			ClientID:   []int{1, 3},
			ClientLoss: []float64{1.8, 1.7},
			ClientNorm: []float64{2, 8},
			Health:     []float64{0.7, math.NaN()},
		},
	}
	rows := f.worstClients()
	if len(rows) != 3 {
		t.Fatalf("want topN=3 rows, got %d", len(rows))
	}
	// Scored rows ascend; the NaN-scored client ranks after scored ones.
	if rows[0].id != 2 || rows[1].id != 1 || rows[2].id != 0 {
		t.Fatalf("bad order: %v %v %v", rows[0], rows[1], rows[2])
	}
	if rows[1].score != 0.7 {
		t.Fatalf("client 1 should use its round-1 score, got %v", rows[1].score)
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil, 10); s != "" {
		t.Fatalf("empty input should render empty, got %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 3}, 10)
	r := []rune(s)
	if len(r) != 4 {
		t.Fatalf("want 4 runes, got %q", s)
	}
	if r[0] != '▁' || r[3] != '█' {
		t.Fatalf("want min..max ramp, got %q", s)
	}
	// Width caps to the most recent values.
	if got := len([]rune(sparkline([]float64{1, 2, 3, 4, 5}, 2))); got != 2 {
		t.Fatalf("width cap failed: %d runes", got)
	}
}
