package metrics

import (
	"math"
	"strings"
	"testing"
)

func mkHistory() *History {
	h := &History{Algorithm: "test"}
	accs := []float64{math.NaN(), 0.5, math.NaN(), 0.7, 0.8}
	for i, a := range accs {
		h.Append(RoundStats{Round: i, TrainLoss: 1.0 / float64(i+1), TestAcc: a,
			Seconds: 0.1, UpBytes: 100, DownBytes: 200})
	}
	return h
}

func TestFinalAccuracy(t *testing.T) {
	h := mkHistory()
	if got := h.FinalAccuracy(2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("FinalAccuracy(2) = %v", got)
	}
	if got := h.FinalAccuracy(10); math.Abs(got-(0.5+0.7+0.8)/3) > 1e-12 {
		t.Fatalf("FinalAccuracy(10) = %v", got)
	}
	empty := &History{}
	if !math.IsNaN(empty.FinalAccuracy(3)) {
		t.Fatal("empty history must give NaN")
	}
}

func TestBestAccuracy(t *testing.T) {
	if got := mkHistory().BestAccuracy(); got != 0.8 {
		t.Fatalf("BestAccuracy = %v", got)
	}
}

func TestRoundsToAccuracy(t *testing.T) {
	h := mkHistory()
	if got := h.RoundsToAccuracy(0.6); got != 4 {
		t.Fatalf("RoundsToAccuracy(0.6) = %v, want 4 (1-based)", got)
	}
	if got := h.RoundsToAccuracy(0.95); got != -1 {
		t.Fatalf("unreached target must give -1, got %v", got)
	}
}

func TestTotalBytesAndMeanSeconds(t *testing.T) {
	h := mkHistory()
	up, down := h.TotalBytes()
	if up != 500 || down != 1000 {
		t.Fatalf("TotalBytes = %d, %d", up, down)
	}
	if math.Abs(h.MeanRoundSeconds()-0.1) > 1e-12 {
		t.Fatalf("MeanRoundSeconds = %v", h.MeanRoundSeconds())
	}
}

func TestFairness(t *testing.T) {
	accs := []float64{0.9, 0.5, 0.7, 0.8, 0.6, 0.95, 0.85, 0.75, 0.65, 0.55}
	f := NewFairness(accs)
	if f.Min != 0.5 || f.Max != 0.95 || f.ClientCount != 10 {
		t.Fatalf("fairness extremes: %+v", f)
	}
	if math.Abs(f.Mean-0.725) > 1e-12 {
		t.Fatalf("mean = %v", f.Mean)
	}
	if f.WorstDecile != 0.5 {
		t.Fatalf("worst decile = %v", f.WorstDecile)
	}
	// Bottom quartile: mean of 3 worst (ceil(10/4)=3): (0.5+0.55+0.6)/3
	if math.Abs(f.BottomQuart-0.55) > 1e-12 {
		t.Fatalf("bottom quartile = %v", f.BottomQuart)
	}
	if !strings.Contains(f.String(), "worst-10%") {
		t.Fatalf("String = %q", f.String())
	}
	zero := NewFairness(nil)
	if zero.ClientCount != 0 {
		t.Fatal("empty fairness")
	}
}

func TestFormatBytes(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
		{5 << 30, "5.00 GiB"},
	} {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(s-2.13809) > 1e-4 { // sample std
		t.Fatalf("std = %v", s)
	}
	m1, s1 := MeanStd([]float64{3})
	if m1 != 3 || s1 != 0 {
		t.Fatalf("single-element: %v %v", m1, s1)
	}
	mn, _ := MeanStd(nil)
	if !math.IsNaN(mn) {
		t.Fatal("empty MeanStd must be NaN")
	}
}

func TestSummaryMentionsAlgorithm(t *testing.T) {
	if s := mkHistory().Summary(); !strings.Contains(s, "test") || !strings.Contains(s, "rounds") {
		t.Fatalf("Summary = %q", s)
	}
}

func TestVolatility(t *testing.T) {
	h := &History{}
	for i, a := range []float64{0.5, 0.9, 0.5, 0.9} {
		h.Append(RoundStats{Round: i, TestAcc: a})
	}
	flat := &History{}
	for i := 0; i < 4; i++ {
		flat.Append(RoundStats{Round: i, TestAcc: 0.7})
	}
	if h.Volatility(4) <= flat.Volatility(4) {
		t.Fatalf("oscillating curve volatility %v should exceed flat %v", h.Volatility(4), flat.Volatility(4))
	}
	if flat.Volatility(4) != 0 {
		t.Fatalf("flat curve volatility %v", flat.Volatility(4))
	}
	if (&History{}).Volatility(3) != 0 {
		t.Fatal("empty history volatility must be 0")
	}
}
