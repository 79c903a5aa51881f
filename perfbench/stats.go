package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles the tail rule considers, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p in n
// samples: the smallest k with k >= p/100*n. The small epsilon keeps
// p=99, n=1000 at rank 990 despite float rounding.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile applies the tail rule: the highest candidate
// percentile with at least minBeyond samples beyond it. ok is false
// when n is too small for any candidate.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n-rank(c, n) >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the middle value (mean of the middle two for even n)
// of the samples; they need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean, NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencySummary is a latency distribution reduced to what the
// benchmark reports: the median, p99 when the tail rule admits it,
// and the tail percentile the rule picks, always with the count.
type latencySummary struct {
	N       int
	P50     float64 // ms
	P99     float64 // ms; the tail value when fewer than 1010 samples
	TailPct float64 // the percentile the tail rule picked (0: none, P99 is the max)
	Tail    float64 // ms
}

// summarize reduces latencies to a latencySummary in milliseconds.
// With too few samples for the tail rule, P99 and Tail fall back to
// the maximum and TailPct is 0, so a reader can tell.
func summarize(lat []time.Duration) latencySummary {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	s := latencySummary{N: len(ms)}
	if len(ms) == 0 {
		return s
	}
	s.P50 = percentile(ms, 50)
	if p, ok := tailPercentile(len(ms)); ok {
		s.TailPct, s.Tail = p, percentile(ms, p)
	} else {
		s.Tail = ms[len(ms)-1]
	}
	if len(ms)-rank(99, len(ms)) >= minBeyond {
		s.P99 = percentile(ms, 99)
	} else {
		s.P99 = s.Tail
	}
	return s
}

// growing reports a backlog that builds within a window: the median
// latency of the last quarter exceeds twice that of the first quarter
// plus slack. Latencies are in send order.
func growing(lat []time.Duration, slack time.Duration) bool {
	q := len(lat) / 4
	if q < minBeyond {
		return false
	}
	first := make([]float64, q)
	last := make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = float64(lat[i])
		last[i] = float64(lat[len(lat)-q+i])
	}
	return median(last) > 2*median(first)+float64(slack)
}
