package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Satellite coverage: exposition edge cases, a promtext lint over
// WriteText, graceful HTTP shutdown, and the Emit escaping fix.

func histBucketCounts(t *testing.T, r *Registry, name string) (buckets map[string]int64, count int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	buckets = map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			open := strings.Index(line, `le="`) + len(`le="`)
			end := strings.Index(line[open:], `"`) + open
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			buckets[line[open:end]] = v
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			count = v
		}
	}
	return buckets, count
}

func TestHistogramEmptyExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_hist", "never observed", []float64{1, 2})
	buckets, count := histBucketCounts(t, r, "empty_hist")
	if count != 0 {
		t.Errorf("empty histogram count = %d", count)
	}
	for le, v := range buckets {
		if v != 0 {
			t.Errorf("empty histogram bucket le=%q = %d, want 0", le, v)
		}
	}
	if _, ok := buckets["+Inf"]; !ok {
		t.Error("empty histogram missing +Inf bucket")
	}
	// And WriteSummary must skip it entirely.
	var sum bytes.Buffer
	r.WriteSummary(&sum)
	if strings.Contains(sum.String(), "empty_hist") {
		t.Errorf("WriteSummary shows silent histogram:\n%s", sum.String())
	}
}

// A value exactly on a bucket bound belongs to that bucket (le = ≤).
func TestHistogramObservationOnBucketBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bound_hist", "", []float64{1, 2})
	h.Observe(1.0)
	buckets, _ := histBucketCounts(t, r, "bound_hist")
	if buckets["1"] != 1 {
		t.Errorf(`le="1" bucket = %d, want 1 (value on bound is inclusive)`, buckets["1"])
	}
}

func TestHistogramInfAndNaNObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_hist", "", []float64{1, 2})
	h.Observe(math.Inf(1))
	h.Observe(math.NaN())
	buckets, count := histBucketCounts(t, r, "edge_hist")
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
	// Cumulative buckets: both observations are above every finite bound.
	if buckets["1"] != 0 || buckets["2"] != 0 {
		t.Errorf("NaN/Inf leaked into finite buckets: %v", buckets)
	}
	if buckets["+Inf"] != 2 {
		t.Errorf("+Inf bucket = %d, want 2", buckets["+Inf"])
	}
}

func TestWriteSummaryHistogramLine(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("timed_sec", "", []float64{1})
	h.Observe(0.5)
	h.Observe(1.5)
	g := r.Gauge("level", "")
	g.Set(0)
	var buf bytes.Buffer
	if err := r.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "count=2") || !strings.Contains(out, "sum=2") || !strings.Contains(out, "mean=1") {
		t.Errorf("histogram summary line missing stats:\n%s", out)
	}
	if !strings.Contains(out, "level") {
		t.Errorf("zero gauge dropped from summary (zero is meaningful for gauges):\n%s", out)
	}
}

// lintPromText checks that every WriteText line is either a well-formed
// comment or a `name{labels} value` sample whose value parses as a float —
// the invariants a Prometheus scraper depends on.
func lintPromText(t *testing.T, r io.Reader) {
	t.Helper()
	sc := bufio.NewScanner(r)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Errorf("line %d: malformed comment %q", n, line)
			}
			if f[1] == "TYPE" && f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram" {
				t.Errorf("line %d: unknown TYPE %q", n, f[3])
			}
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Errorf("line %d: no value separator in %q", n, line)
			continue
		}
		name, value := line[:sp], line[sp+1:]
		if open := strings.Index(name, "{"); open >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("line %d: unbalanced labels in %q", n, name)
			}
			for _, pair := range strings.Split(name[open+1:len(name)-1], ",") {
				eq := strings.Index(pair, "=")
				if eq < 0 || !strings.HasPrefix(pair[eq+1:], `"`) || !strings.HasSuffix(pair, `"`) {
					t.Errorf("line %d: malformed label pair %q", n, pair)
				}
			}
			name = name[:open]
		}
		for i, c := range name {
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Errorf("line %d: invalid metric name %q", n, name)
				break
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: value %q does not parse: %v", n, value, err)
		}
	}
}

func TestWriteTextPassesPromLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("wire_bytes_total{algo=\"rfedavg+\"}", "bytes on the wire").Add(10)
	r.Counter("wire_bytes_total{algo=\"fedavg\"}", "bytes on the wire").Add(5)
	r.Gauge("stale_rows", "").Set(2.5)
	h := r.Histogram("round_sec", "round duration", DefDurationBuckets)
	h.Observe(0.25)
	h.Observe(math.Inf(1))
	h.Observe(math.NaN()) // makes _sum NaN — still a valid promtext value
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lintPromText(t, &buf)
}

// TestServerCloseWaitsForInflightScrape pins the graceful-shutdown fix: a
// scrape caught mid-body when Close is called must still receive its full
// response.
func TestServerCloseWaitsForInflightScrape(t *testing.T) {
	entered := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("first-half "))
		w.(http.Flusher).Flush()
		close(entered)
		time.Sleep(300 * time.Millisecond) // slow scraper mid-body
		w.Write([]byte("second-half"))
	})
	s, err := ListenAndServeHandler("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	body := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/metrics")
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			errc <- err
			return
		}
		body <- string(b)
	}()
	<-entered
	if err := s.Close(); err != nil {
		t.Errorf("Close during in-flight scrape: %v", err)
	}
	select {
	case got := <-body:
		if got != "first-half second-half" {
			t.Errorf("scrape body = %q, want full response", got)
		}
	case err := <-errc:
		t.Errorf("scrape severed by Close: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("scrape never completed")
	}
}

// TestRunLedgerEventEscapingRoundTrip pins the Emit fix: hostile event/detail
// strings (quotes, newlines, control bytes — everything strconv.Quote used
// to mangle into Go-only escapes) must still yield one valid JSON object
// per line that round-trips to the original string.
func TestRunLedgerEventEscapingRoundTrip(t *testing.T) {
	hostile := []string{
		`plain`,
		`with "quotes" inside`,
		"line\nbreak and\ttab and\rreturn",
		"backslash \\ and slash /",
		"control \x01\x02\x1f bytes",
		"bell \a vertical \v formfeed \f", // Go escapes \a \v; JSON must use \u00XX
		"unicode naïve 日本語 ♥",
	}
	var buf bytes.Buffer
	l := NewRunLedger(&buf)
	for i, d := range hostile {
		l.Emit("evict: "+d, i, d)
	}
	sc := bufio.NewScanner(&buf)
	i := 0
	for sc.Scan() {
		var got struct {
			TS     string `json:"ts"`
			Event  string `json:"event"`
			Round  int    `json:"round"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d %q: %v", i, sc.Text(), err)
		}
		if got.Detail != hostile[i] {
			t.Errorf("line %d detail = %q, want %q", i, got.Detail, hostile[i])
		}
		if got.Event != "evict: "+hostile[i] || got.Round != i {
			t.Errorf("line %d event/round mismatch: %+v", i, got)
		}
		if _, err := time.Parse(time.RFC3339Nano, got.TS); err != nil {
			t.Errorf("line %d ts %q: %v", i, got.TS, err)
		}
		i++
	}
	if i != len(hostile) {
		t.Fatalf("decoded %d lines, want %d", i, len(hostile))
	}
	// Invalid UTF-8 must not corrupt framing even though the decoded string
	// is coerced to U+FFFD.
	buf.Reset()
	l.Emit("bad", 0, "raw \xff byte")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Errorf("invalid-UTF-8 detail broke the line %q: %v", buf.String(), err)
	}
}

// Event lines share the stream's buffer with round and span lines: once it
// has grown, an Emit allocates nothing.
func TestRunLedgerEmitSteadyStateAllocs(t *testing.T) {
	l := NewRunLedger(bufio.NewWriter(io.Discard))
	for i := 0; i < 3; i++ {
		l.Emit("warm", i, "detail string")
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Emit("steady", 7, "detail string")
	})
	if allocs != 0 {
		t.Errorf("Emit: %.1f allocs/op, want 0", allocs)
	}
}
