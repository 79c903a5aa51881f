package main

import (
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 4000, 2*time.Second)
	if s.n != 8000 {
		t.Fatalf("n = %d, want 8000", s.n)
	}
	if got := s.due(1).Sub(t0); got != 250*time.Microsecond {
		t.Errorf("due(1) = %v, want 250µs", got)
	}
	// Due times come from the index, so a long window does not drift:
	// request 3,000,000 at 3/s is due exactly 1,000,000s in.
	long := newSchedule(t0, 3, 0)
	if got := long.due(3_000_000).Sub(t0); got != 1_000_000*time.Second {
		t.Errorf("due(3e6) at 3/s = %v, want 1e6 s", got)
	}
	for i := 1; i < 1000; i++ {
		if !s.due(i).After(s.due(i - 1)) {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newSchedule(t0, 1000, time.Second) // one request per ms
	if got := s.lag(5, s.due(5).Add(-time.Microsecond)); got != 0 {
		t.Errorf("early send lag = %v, want 0", got)
	}
	if got := s.lag(5, s.due(5).Add(300*time.Microsecond)); got != 300*time.Microsecond {
		t.Errorf("late send lag = %v, want 300µs", got)
	}
	// A 10ms stall from request 0's due time: the reply to request 0
	// and the four queued behind it all arrive at 10ms. Each is charged
	// the wait from its own due time, not from when it was finally sent.
	done := t0.Add(10 * time.Millisecond)
	for i, want := range []time.Duration{10, 9, 8, 7, 6} {
		if got := s.latency(i, done); got != want*time.Millisecond {
			t.Errorf("latency(%d) = %v, want %vms", i, got, want)
		}
	}
	// HTTP workers: a request picked up after its due time (all workers
	// busy) is not generator lateness; the send counts from the pick.
	picked := s.due(3).Add(4 * time.Millisecond)
	sent := picked.Add(20 * time.Microsecond)
	if got := sent.Sub(maxTime(s.due(3), picked)); got != 20*time.Microsecond {
		t.Errorf("queued request lag = %v, want 20µs", got)
	}
}

func TestPacerNeverEarly(t *testing.T) {
	p := newPacer()
	defer p.release()
	for i := 0; i < 50; i++ {
		due := time.Now().Add(200 * time.Microsecond)
		p.sleepUntil(due)
		if now := time.Now(); now.Before(due) {
			t.Fatalf("woke %v early", due.Sub(now))
		}
	}
}

func TestLadderSearch(t *testing.T) {
	l := ladder{lo: 100, hi: 1000, step: 1.1}
	rungs := l.rungs()
	if rungs[0] != 100 || rungs[len(rungs)-1] > 1000 || rungs[len(rungs)-1] < 1000/1.1 {
		t.Fatalf("rungs %v", rungs)
	}
	for _, capacity := range []float64{50, 100, 333, 999, 5000} {
		var probes int
		got, _ := l.search(ladderStart(l, 200), func(rate float64) (bool, string) {
			probes++
			return rate <= capacity, ""
		})
		want := 0.0
		for _, r := range rungs {
			if r <= capacity {
				want = r
			}
		}
		if got != want {
			t.Errorf("capacity %v: found %v, want %v", capacity, got, want)
		}
		if probes > 6 {
			t.Errorf("capacity %v: %d probes, bisection over %d rungs should need at most 6 steps", capacity, probes, len(rungs))
		}
	}
	// Each rung is probed at most once.
	calls := map[float64]int{}
	l.search(ladderStart(l, 200), func(rate float64) (bool, string) {
		calls[rate]++
		return rate <= 333, ""
	})
	for rate, n := range calls {
		if n != 1 {
			t.Errorf("rung %v probed %d times, want 1", rate, n)
		}
	}
}
