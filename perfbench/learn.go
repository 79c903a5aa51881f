package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/geoloc"
	"hoiho/internal/itdk"
	"hoiho/internal/obs"
	"hoiho/internal/rex"
	"hoiho/internal/synth"
)

// setupRepeats is how many times a daemon workload starts its daemon
// to measure set-up; the median is reported.
const setupRepeats = 31

// corpusSetups is how many times learn-10x generates and writes its
// corpus to measure set-up. Each takes a few seconds, so fewer than a
// daemon's start.
const corpusSetups = 3

// minLearns is the fewest timed learning runs a learn-10x run makes,
// however short -seconds is.
const minLearns = 3

// runLearn is the learn-10x workload: the shipped hoiho learns
// conventions from the seed's ×10 corpus, repeatedly, for the measuring
// time. No serving layer runs.
func runLearn(e *env) (*outcome, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("learn-seed%d", e.seed))
	defer os.RemoveAll(dir)
	corpus := filepath.Join(dir, "corpus")
	repeats := corpusSetups
	if e.trace {
		repeats = 1
	}
	w, setup, err := setUpCorpus(e, corpus, repeats)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceLearn(e, w, corpus, dir)
	}

	out := newOutcome()
	var walls, cpus, scaledCPUs []float64
	var peak float64
	var first []byte
	var mismatches []string
	steal0, total0 := hostCPU()
	deadline := time.Now().Add(e.seconds)
	for k := 0; k < minLearns || time.Now().Before(deadline); k++ {
		nc := filepath.Join(dir, fmt.Sprintf("nc-%d.txt", k))
		t0 := time.Now()
		r, err := runTool(e.bin("hoiho"), "-corpus", corpus, "-write-nc", nc)
		if err != nil {
			return nil, err
		}
		sc, _, err := e.scaled(r.cpu.Seconds(), t0, time.Now())
		if err != nil {
			return nil, err
		}
		b, err := os.ReadFile(nc)
		if err != nil {
			return nil, err
		}
		out.attempted++
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		scaledCPUs = append(scaledCPUs, sc)
		peak = max(peak, r.rssMB)
		if first == nil {
			first = b
		} else if !bytes.Equal(b, first) {
			out.failed++
			out.wrong++
			mismatches = append(mismatches, fmt.Sprintf("learn %d wrote conventions that differ from learn 0", k))
		}
		if k > 0 {
			os.Remove(nc)
		}
	}
	steal := stealSince(steal0, total0)
	res, err := core.ReadConventions(bytes.NewReader(first))
	if err != nil {
		return nil, err
	}
	tp, ppv := accuracy(w, res)

	learnS := median(walls)
	m := out.metrics
	m["setup_s"] = setup
	m["cpu_us_per_op"] = median(scaledCPUs) * 1e6
	m["peak_rss_mb"] = peak
	m["geo_tp_frac"] = tp
	m["geo_ppv"] = ppv

	const wl = "learn-10x"
	report(wl, "learn_s", learnS, "s", fmt.Sprintf("median of %d runs", len(walls)))
	report(wl, "learn_cpu_s", median(cpus), "s", "user+system, rusage")
	report(wl, "cpu_us_per_op", m["cpu_us_per_op"], "us", "learn_cpu_s of each learn scaled by the speed probes beside it, median")
	report(wl, "geo_tp_frac", tp, "fraction", "fig. 9 TP/(TP+FP+FN)")
	report(wl, "geo_ppv", ppv, "fraction", "fig. 9 TP/(TP+FP)")
	report(wl, "peak_rss_mb", peak, "MB", "hoiho, rusage")
	report(wl, "setup_s", setup, "s", fmt.Sprintf("CPU to generate and write the corpus, scaled by the speed probes beside it, median of %d", corpusSetups))
	report(wl, "corpus", float64(len(hostnames(w.Corpus))), "hostnames", fmt.Sprintf("%d conventions learned", len(res.NCs)))
	report(wl, "error_frac", float64(out.failed)/float64(out.attempted), "fraction", "")
	report(wl, "host.steal_frac", steal, "fraction", "machine CPU stolen by the hypervisor during the measurement")
	if len(mismatches) > 0 {
		fmt.Printf("learn-10x MISMATCH\n  %s\n", joinErrs(mismatches))
	}
	return out, nil
}

// setUpCorpus is learn-10x's set-up: it generates the seed's world and
// writes its corpus to dir, n times, and returns the world with the
// median CPU time, in seconds, that one set-up took this process,
// scaled by the speed probes beside it. CPU rather than wall time, so
// that a busy machine does not read as a slower set-up; only the speed
// probe runs in the process meanwhile, and its CPU is taken out.
func setUpCorpus(e *env, dir string, n int) (*synth.World, float64, error) {
	var w *synth.World
	var cpus []float64
	for i := 0; i < n; i++ {
		runtime.GC() // so an earlier set-up's garbage is not collected on this one's clock
		t0, probe0 := time.Now(), e.probe.cpu()
		cpu0, err := selfCPU()
		if err != nil {
			return nil, 0, err
		}
		if w, err = genWorld(e.seed); err != nil {
			return nil, 0, err
		}
		if err := writeCorpus(w, dir); err != nil {
			return nil, 0, err
		}
		cpu1, err := selfCPU()
		if err != nil {
			return nil, 0, err
		}
		cpu := (cpu1 - cpu0 - (e.probe.cpu() - probe0)).Seconds()
		sc, _, err := e.scaled(cpu, t0, time.Now())
		if err != nil {
			return nil, 0, err
		}
		cpus = append(cpus, sc)
	}
	return w, median(cpus), nil
}

// traceLearn is learn-10x's traced run: hoiho once, then an in-process
// replay of the same corpus through each layer's public calls, timed
// from outside: corpus load, the full pipeline (once untraced, once
// with the obs tracer whose span counters give the work counts), the
// per-suffix stage-2 and stage-2..5 calls, and the writers.
func traceLearn(e *env, w *synth.World, corpus, dir string) (*outcome, error) {
	out := newOutcome()
	m := out.metrics
	tr := newRecorder(time.Now(), 0)
	nc := filepath.Join(dir, "nc.txt")
	if _, err := runTool(e.bin("hoiho"), "-corpus", corpus, "-write-nc", nc); err != nil {
		return nil, err
	}
	published, err := os.ReadFile(nc)
	if err != nil {
		return nil, err
	}

	sp := tr.start("itdk.LoadInputs", 0, 0)
	in, err := geoloc.LoadInputs(corpus)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m["itdk.load_s"] = tr.spans[sp-1].dur().Seconds()

	workers := runtime.NumCPU() // hoiho's default: GOMAXPROCS, which is NumCPU there
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	t0 := time.Now()
	if _, err := core.Run(in, cfg); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)

	ot := obs.New(obs.Options{})
	cfg.Tracer = ot
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	spec0, fall0 := rex.MatcherCounts()
	sp = tr.start("core.Run", 0, 0)
	res, err := core.Run(in, cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	runSpan := tr.spans[sp-1].dur()
	spec1, fall1 := rex.MatcherCounts()
	runtime.ReadMemStats(&m1)
	m["core.run_s"] = runSpan.Seconds()
	m["core.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	m["core.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	m["rex.matchers_compiled"] = float64(spec1 - spec0)
	m["rex.matcher_fallbacks"] = float64(fall1 - fall0)
	learnC, stage2C := ot.StageCounters("learn"), ot.StageCounters("stage2")
	m["core.evaluations"] = float64(learnC["evaluations"])
	m["core.candidates"] = float64(learnC["candidates"])
	m["core.learned_hints"] = float64(learnC["learned_hints"])
	m["core.rtt_checks"] = float64(learnC["rtt_checks"] + stage2C["rtt_checks"])
	m["trace.overhead_ms"] = float64(runSpan-untraced) / float64(time.Millisecond)

	var ncBuf, snapBuf bytes.Buffer
	sp = tr.start("core.WriteConventions", 0, 0)
	err = core.WriteConventions(&ncBuf, res)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m["core.write_conventions_s"] = tr.spans[sp-1].dur().Seconds()
	sp = tr.start("geoloc.Save", 0, 0)
	err = geoloc.Save(&snapBuf, res, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	m["geoloc.save_s"] = tr.spans[sp-1].dur().Seconds()
	out.attempted++
	if !bytes.Equal(ncBuf.Bytes(), published) {
		out.failed++
		out.wrong++
		fmt.Println("learn-10x MISMATCH: in-process core.Run + WriteConventions differs from hoiho -write-nc")
	}

	// Per-suffix replay. Each group runs against a corpus holding only
	// its routers, so the calls do not re-group the whole corpus; the
	// group's hostnames, the RTT matrix and the dictionary are the
	// same, so the work is the same as inside Run.
	cfg.Tracer = nil
	root := tr.start("core.suffix-replay", 0, 0)
	var maxSuffix time.Duration
	for _, g := range in.Corpus.GroupBySuffix(in.PSL) {
		sub, err := groupInputs(in, g)
		if err != nil {
			return nil, err
		}
		sp := tr.start("core.TagSuffix", root, 0)
		_, err = core.TagSuffix(sub, cfg, g.Suffix)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("core.RunSuffix", root, 0)
		_, _, err = core.RunSuffix(sub, cfg, g.Suffix)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		maxSuffix = max(maxSuffix, tr.spans[sp-1].dur())
	}
	tr.end(root)
	groups := byName(tr.spans)
	m["core.stage2_s"] = sumSeconds(groups["core.TagSuffix"])
	m["core.suffix_sum_s"] = sumSeconds(groups["core.RunSuffix"])
	m["core.suffix_max_s"] = maxSuffix.Seconds()
	m["core.parallel_eff"] = m["core.suffix_sum_s"] / (float64(workers) * m["core.run_s"])

	path, err := writeTrace(e, "learn-10x", tr.spans)
	if err != nil {
		return nil, err
	}
	reportAll("learn-10x", m, perLayer)
	report("learn-10x", "trace", float64(len(tr.spans)), "spans", path)
	report("learn-10x", "learn_s (untraced in-process)", untraced.Seconds(), "s", "")
	report("learn-10x", "learn_s (traced in-process)", runSpan.Seconds(), "s", "")
	return out, nil
}

// groupInputs returns inputs whose corpus holds only the routers of
// one suffix group.
func groupInputs(in core.Inputs, g *itdk.SuffixGroup) (core.Inputs, error) {
	c := itdk.NewCorpus(in.Corpus.Name, in.Corpus.IPv6)
	for _, h := range g.Hosts {
		if c.Router(h.Router.ID) != nil {
			continue
		}
		if err := c.Add(h.Router); err != nil {
			return in, err
		}
	}
	sub := in
	sub.Corpus = c
	return sub, nil
}
