package main

import (
	"fmt"
	"math"
	"time"
)

// lostLatency marks a request that never got a reply.
const lostLatency = time.Duration(-1)

// window is one open-loop load window's record, indexed by request.
type window struct {
	sched schedule
	lat   []time.Duration // from due time to reply; lostLatency if none
	lag   []time.Duration // how late each request was sent
	lost  int
	wrong int
	errs  []string // mismatch descriptions, a few at most
}

func newWindow(s schedule) *window {
	w := &window{sched: s, lat: make([]time.Duration, s.n), lag: make([]time.Duration, s.n)}
	for i := range w.lat {
		w.lat[i] = lostLatency
	}
	return w
}

// mismatch records a wrong answer.
func (w *window) mismatch(format string, args ...any) {
	w.wrong++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

// answered returns the latencies of the requests that got a reply, in
// send order.
func (w *window) answered() []time.Duration {
	out := make([]time.Duration, 0, len(w.lat))
	for _, l := range w.lat {
		if l != lostLatency {
			out = append(out, l)
		}
	}
	return out
}

// failed counts requests that were lost or answered wrongly.
func (w *window) failed() int { return w.lost + w.wrong }

// printMismatches reports a window's wrong answers on stdout.
func printMismatches(workload string, w *window) {
	if len(w.errs) > 0 {
		fmt.Printf("%s MISMATCH (%d wrong)\n  %s\n", workload, w.wrong, joinErrs(w.errs))
	}
}

// lagP99 returns the generator's p99 lateness in ms.
func (w *window) lagP99() float64 { return summarize(w.lag).P99 }

// meets reports whether the window met the SLO: every request answered
// correctly, the tail percentile within slo, and no backlog building
// up over the window. why says what failed.
func (w *window) meets(slo time.Duration) (ok bool, why string) {
	lat := w.answered()
	s := summarize(lat)
	switch {
	case w.sched.n == 0:
		return false, "empty"
	case w.failed() > 0:
		return false, fmt.Sprintf("%d lost, %d wrong", w.lost, w.wrong)
	case s.P99 > float64(slo)/float64(time.Millisecond):
		return false, fmt.Sprintf("p99 %.3gms", s.P99)
	case growing(lat, slo/10):
		return false, "backlog"
	}
	return true, fmt.Sprintf("p99 %.3gms", s.P99)
}

// ladder is a workload's rate ladder: geometric rungs from lo up to
// hi, step apart. The step must be finer than the bound on
// max_rate_at_slo so a one-rung change is a real change.
type ladder struct {
	lo, hi, step float64
}

func (l ladder) rungs() []float64 {
	var out []float64
	for r := l.lo; r <= l.hi*1.0001; r *= l.step {
		out = append(out, math.Round(r))
	}
	return out
}

// ladderStart returns the index of the highest rung at or below rate.
func ladderStart(l ladder, rate float64) int {
	idx := 0
	for i, r := range l.rungs() {
		if r <= rate {
			idx = i
		}
	}
	return idx
}

// expectedProbes is how many probes search makes from start, so a run
// can split its ladder time between them.
func (l ladder) expectedProbes(start int) int {
	return 1 + int(math.Ceil(math.Log2(float64(max(len(l.rungs())-start, 1)))))
}

// search finds the highest rung whose probe meets the SLO, by bisection
// between a rung known to pass and one known to fail (the rung above
// the top counts as failing). probe runs one window at a rate and
// reports whether it met the SLO, and why not. start is the index of
// the rung to test first. It returns the rate found (0 when even the
// lowest rung fails) and the probes made.
func (l ladder) search(start int, probe func(rate float64) (bool, string)) (float64, []string) {
	rungs := l.rungs()
	pass, fail := -1, len(rungs)
	var log []string
	try := func(i int) {
		ok, why := probe(rungs[i])
		log = append(log, fmt.Sprintf("%.0f:%v(%s)", rungs[i], ok, why))
		if ok {
			pass = i
		} else {
			fail = i
		}
	}
	try(min(max(start, 0), len(rungs)-1))
	for fail-pass > 1 {
		try((pass + fail + 1) / 2)
	}
	if pass < 0 {
		return 0, log
	}
	return rungs[pass], log
}

// serving is a daemon workload's measurement: one window at the
// reference rate and the ladder search.
type serving struct {
	ref       *window
	cpu       time.Duration // daemon CPU used during the reference window
	cpuPerReq float64       // per answered request, scaled by the speed probes beside it, µs
	cpuNote   string
	maxRate   float64
	probes    []string
	wrong     int // wrong answers during the probes
	errs      []string
	steal     float64 // host steal share over the measurement
}

// runWindow runs one open-loop window at rate for d and returns it with
// the CPU the daemon used meanwhile.
type runWindow func(rate float64, d time.Duration) (*window, time.Duration, error)

// refShare is the share of a daemon workload's measuring time spent at
// the reference rate, whose CPU is on the result line; the ladder
// search gets the rest.
const refShare = 0.7

// measureServing spends refShare of the run's measuring time on one
// window at the reference rate and the rest on the ladder search. The
// window's daemon CPU is scaled by the speed probes that ran beside it.
func measureServing(e *env, l ladder, refRate float64, slo time.Duration, run runWindow) (*serving, error) {
	sv := &serving{}
	steal0, total0 := hostCPU()
	t0 := time.Now()
	var err error
	if sv.ref, sv.cpu, err = run(refRate, e.measure(refShare)); err != nil {
		return nil, err
	}
	var scaled float64
	if scaled, sv.cpuNote, err = e.scaled(sv.cpu.Seconds(), t0, time.Now()); err != nil {
		return nil, err
	}
	sv.cpuPerReq = scaled * 1e6 / float64(max(len(sv.ref.answered()), 1))
	start := ladderStart(l, refRate)
	probeDur := e.measure(1-refShare) / time.Duration(l.expectedProbes(start))
	sv.maxRate, sv.probes = l.search(start, func(rate float64) (bool, string) {
		if err != nil {
			return false, "error"
		}
		time.Sleep(100 * time.Millisecond) // lets the previous window drain
		w, _, err2 := run(rate, probeDur)
		if err2 != nil {
			err = err2
			return false, "error"
		}
		sv.wrong += w.wrong
		sv.errs = append(sv.errs, w.errs...)
		return w.meets(slo)
	})
	sv.steal = stealSince(steal0, total0)
	return sv, err
}

// servingFacts are the rest of what a daemon workload reports beside
// its serving measurement.
type servingFacts struct {
	setupCPU     []float64 // daemon CPU from exec to first verified answer, s
	setupWall    []float64 // wall time of the same, s
	setupT0      time.Time // when the set-ups began
	setupT1      time.Time // and ended
	rss, tp, ppv float64
	refRate      float64
	slo          time.Duration
	unit, daemon string
}

// finishServing folds a daemon workload's measurement into its outcome
// and prints it, under the design's metric names where they differ.
func finishServing(e *env, wl string, out *outcome, sv *serving, f servingFacts) error {
	ref := sv.ref
	lat := summarize(ref.answered())
	cpuPerReq := float64(sv.cpu) / float64(time.Microsecond) / float64(max(lat.N, 1))
	setup, setupNote, err := e.scaled(median(f.setupCPU), f.setupT0, f.setupT1)
	if err != nil {
		return err
	}
	out.attempted += int64(ref.sched.n)
	out.failed += int64(ref.failed() + sv.wrong)
	out.wrong += int64(ref.wrong + sv.wrong)
	if errs := append(ref.errs, sv.errs...); len(errs) > 0 {
		fmt.Printf("%s MISMATCH (%d wrong)\n  %s\n", wl, ref.wrong+sv.wrong, joinErrs(errs))
	}
	m := out.metrics
	m["setup_s"] = setup
	m["cpu_us_per_op"] = sv.cpuPerReq
	m["peak_rss_mb"] = f.rss
	m["geo_tp_frac"] = f.tp
	m["geo_ppv"] = f.ppv

	at := fmt.Sprintf("at %.0f %s, n=%d", f.refRate, f.unit, lat.N)
	report(wl, "setup_s", setup, "s", fmt.Sprintf("%s CPU from exec to verified answer, median of %d, %s", f.daemon, len(f.setupCPU), setupNote))
	report(wl, "setup_wall_s", median(f.setupWall), "s", fmt.Sprintf("%s exec to verified answer, median of %d", f.daemon, len(f.setupWall)))
	report(wl, "latency_p50_ms", lat.P50, "ms", "from schedule, "+at)
	report(wl, "latency_p99_ms", lat.P99, "ms", fmt.Sprintf("from schedule, %s; the tail rule picks p%g = %.4g ms", at, lat.TailPct, lat.Tail))
	report(wl, "max_rate_at_slo", sv.maxRate, f.unit, fmt.Sprintf("SLO p99 <= %v; probes %v", f.slo, sv.probes))
	report(wl, "error_frac", float64(ref.failed())/float64(max(ref.sched.n, 1)), "fraction",
		fmt.Sprintf("%d lost, %d wrong of %d at the reference rate", ref.lost, ref.wrong, ref.sched.n))
	report(wl, "server_cpu_us_per_req", cpuPerReq, "us", f.daemon+" CPU from /proc, "+at)
	report(wl, "cpu_us_per_op", m["cpu_us_per_op"], "us", "server_cpu_us_per_req "+sv.cpuNote)
	report(wl, "peak_rss_mb", f.rss, "MB", f.daemon+" VmHWM")
	report(wl, "gen.lag_p99_ms", ref.lagP99(), "ms", "generator lateness at the reference rate")
	report(wl, "geo_tp_frac", f.tp, "fraction", "served snapshot, fig. 9")
	report(wl, "geo_ppv", f.ppv, "fraction", "served snapshot, fig. 9")
	report(wl, "host.steal_frac", sv.steal, "fraction", "machine CPU stolen by the hypervisor during the measurement")
	return nil
}
