// Command perfbench is the repository's end-to-end benchmark. It
// generates its inputs from a seed, drives the shipped binaries (hoiho,
// geosnap, geodns, geoserve) built from the same tree, checks every
// answer against an in-process oracle, and prints its metrics: the
// end-to-end set from an untraced run (-trace 0) or the per-layer set
// from a traced run (-trace 1). The last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}.
//
// Run it through run.sh, which builds everything first:
//
//	bash perfbench/run.sh --workload dns-hot --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md gives the reasons, SLOs and rate ladders):
//
//	learn-10x          hoiho -corpus -write-nc on a ×10 ipv4-aug2020 corpus
//	dns-hot            geodns under open-loop UDP load on cache-resident names
//	http-cold-reload   geoserve under open-loop batch POSTs with reloads
//	all                every workload in turn (metrics prefixed by workload)
//
// A wrong answer makes the run exit 1 after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is one benchmark invocation's configuration.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	binDir  string
	work    string

	probe *speedProbe // the host speed probe running beside the current workload
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// scaled returns cpu, measured between t0 and t1, scaled by the speed
// probes of that interval (see calib.go), with a note for the report.
func (e *env) scaled(cpu float64, t0, t1 time.Time) (float64, string, error) {
	f, n, err := e.probe.factor(t0, t1)
	if err != nil {
		return 0, "", err
	}
	return cpu * f, fmt.Sprintf("scaled by %.4f, from %d speed probes", f, n), nil
}

// measure returns a fraction of the run's measuring time.
func (e *env) measure(frac float64) time.Duration {
	return time.Duration(frac * float64(e.seconds))
}

// outcome is what one workload run produced.
type outcome struct {
	metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	attempted int64
	failed    int64 // lost, timed out or wrong
	wrong     int64 // answers that disagreed with the oracle
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// report prints one metric line for a human reader. Metrics that only
// exist on some workloads, and the design's names for the generic ones,
// are printed this way alongside the JSON set.
func report(workload, name string, value float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-16s %-28s %14.6g %s%s\n", workload, name, value, unit, note)
}

// workloads maps each name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"learn-10x":        runLearn,
	"dns-hot":          runDNS,
	"http-cold-reload": runHTTP,
}

var workloadOrder = []string{"learn-10x", "dns-hot", "http-cold-reload"}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "learn-10x, dns-hot, http-cold-reload or all")
	seed := flag.Int64("seed", 0, "input seed; the same seed gives byte-identical inputs")
	seconds := flag.Int("seconds", 20, "measuring time per workload run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	binDir := flag.String("bin", "", "directory holding the built hoiho, geosnap, geodns, geoserve")
	work := flag.String("work", "", "working directory for generated inputs, caches and traces")
	flag.Parse()
	if *binDir == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -bin and -work are required, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	names := workloadOrder
	if *workload != "all" {
		if workloads[*workload] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, binDir: *binDir, work: *work,
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatal(err)
	}

	outs := make([]*outcome, len(names))
	for i, name := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d\n", name, *seed, *seconds, *trace)
		e.probe = startSpeedProbe(probeEvery)
		out, err := workloads[name](e)
		if perr := e.probe.close(); err == nil && perr != nil {
			err = fmt.Errorf("speed probe: %w", perr)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		outs[i] = out
	}
	res, err := assemble(names, outs, e.trace)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers; see the mismatch lines above")
		os.Exit(1)
	}
}

// assemble builds the result line from the workloads' outcomes: the
// end-to-end set, or the per-layer set for a traced run. Any wrong
// answer makes the result incorrect, which fails the run.
func assemble(names []string, outs []*outcome, trace bool) (jsonResult, error) {
	res := jsonResult{Correct: true, Metrics: make(map[string]jsonMetric)}
	want := endToEnd
	if trace {
		want = perLayer
	}
	for i, out := range outs {
		res.Attempted += out.attempted
		res.Failed += out.failed
		if out.wrong > 0 {
			res.Correct = false
		}
		for _, m := range want {
			v := out.metrics[m.name] // absent: a layer this workload leaves idle
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return res, fmt.Errorf("%s: metric %s is %v", names[i], m.name, v)
			}
			key := m.name
			if len(names) > 1 {
				key = names[i] + "/" + m.name
			}
			res.Metrics[key] = jsonMetric{Value: v, Unit: m.unit}
		}
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the untraced run's JSON metric set. Every workload reports
// every one; the per-workload meaning is in README.md. Wall-clock
// latencies and the highest rate meeting the SLO are printed but not in
// this set: on a shared machine their run-to-run spread is wider than
// any bound the result line may carry (README.md gives the measurements).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"geo_tp_frac", "fraction"},
	{"geo_ppv", "fraction"},
}

// perLayer is the traced run's JSON metric set. A workload reports 0
// for the layers it leaves idle.
var perLayer = []metricDef{
	{"itdk.load_s", "s"},
	{"core.run_s", "s"},
	{"core.stage2_s", "s"},
	{"core.suffix_sum_s", "s"},
	{"core.suffix_max_s", "s"},
	{"core.parallel_eff", "fraction"},
	{"core.evaluations", "count"},
	{"core.rtt_checks", "count"},
	{"core.candidates", "count"},
	{"core.learned_hints", "count"},
	{"rex.matchers_compiled", "count"},
	{"rex.matcher_fallbacks", "count"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"core.write_conventions_s", "s"},
	{"geoloc.save_s", "s"},
	{"dnswire.unpack_us", "us"},
	{"geoloc.lookup_us", "us"},
	{"geoloc.answer_strings_us", "us"},
	{"dnswire.pack_us", "us"},
	{"dnswire.pack_allocs", "count"},
	{"dnsserve.handle_us", "us"},
	{"dnsserve.handle_allocs", "count"},
	{"dnsserve.self_us", "us"},
	{"obs.tracer_overhead_us", "us"},
	{"geoloc.cache_hit_ratio", "fraction"},
	{"geodns.reply_bytes_mean", "bytes"},
	{"gen.lag_p99_ms", "ms"},
	{"udp.lost", "count"},
	{"geoserve.route_us", "us"},
	{"geoloc.batch_us", "us"},
	{"geoserve.self_us", "us"},
	{"geoloc.match_ratio", "fraction"},
	{"client.queue_us", "us"},
	{"geoserve.reload_build_ms", "ms"},
	{"geoserve.reload_swap_ms", "ms"},
	{"geoserve.reload_ms", "ms"},
	{"geoloc.lookup_cold_us", "us"},
	{"geoloc.load_ms", "ms"},
	{"geoloc.spotcheck_us", "us"},
	{"trace.overhead_ms", "ms"},
}

// reportAll prints a workload's metrics in name order.
func reportAll(workload string, metrics map[string]float64, defs []metricDef) {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if u, ok := units[k]; ok {
			report(workload, k, metrics[k], u, "")
		}
	}
}

// joinErrs formats up to the first few mismatch descriptions.
func joinErrs(errs []string) string {
	if len(errs) > 5 {
		errs = append(errs[:5:5], fmt.Sprintf("... and %d more", len(errs)-5))
	}
	return strings.Join(errs, "\n  ")
}
