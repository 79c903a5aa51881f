package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},   // no percentile has 10 samples beyond it
		{20, 50, true},   // rank 10 of 20 leaves 10 beyond
		{999, 95, true},  // p99 would leave only 9 beyond
		{1000, 99, true}, // rank 990 leaves exactly 10
		{9999, 99, true}, // p99.9 would leave 9
		{10000, 99.9, true},
		{1_000_000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, got, c.n-rank(got, c.n))
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	lat := make([]time.Duration, 2000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond // 1µs .. 2000µs
	}
	s := summarize(lat)
	if s.N != 2000 || s.TailPct != 99 {
		t.Fatalf("N=%d tail=p%v, want 2000, p99", s.N, s.TailPct)
	}
	if s.P50 != 1.0 || s.P99 != 1.98 || s.Tail != s.P99 {
		t.Errorf("p50=%v p99=%v tail=%v, want 1.0, 1.98, 1.98 ms", s.P50, s.P99, s.Tail)
	}
	// Too few samples: p99 falls back to the maximum, flagged by a zero
	// tail percentile.
	small := summarize([]time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	if small.N != 3 || small.TailPct != 0 || small.P99 != 3 || small.P50 != 2 {
		t.Errorf("small sample summary %+v", small)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := make([]time.Duration, 400)
	ramp := make([]time.Duration, 400)
	for i := range flat {
		flat[i] = time.Millisecond
		ramp[i] = time.Duration(i) * 100 * time.Microsecond
	}
	if growing(flat, time.Millisecond) {
		t.Error("flat latencies reported as a growing backlog")
	}
	if !growing(ramp, time.Millisecond) {
		t.Error("steadily rising latencies not reported as a growing backlog")
	}
}

func TestMedianMean(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty median/mean should be NaN")
	}
}
