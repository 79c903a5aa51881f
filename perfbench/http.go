package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/geoloc"
)

// http-cold-reload settings. README.md records why each has its value.
var (
	httpSLO     = 50 * time.Millisecond
	httpRefRate = 200.0
	httpLadder  = ladder{lo: 100, hi: 4000, step: 1.08}
	reloadEvery = 5 * time.Second
	// httpMaxHitRatio is the largest share of lookups the index may
	// answer from its cache for http-cold-reload to measure matching;
	// the traced run fails above it.
	httpMaxHitRatio = 0.3
)

const (
	httpBatchSize = 50
	// httpBatches distinct request bodies are drawn and cycled. 1024×50
	// lookups is twice the hostname pool and over ten times the LRU, so
	// a batch's names are long evicted by the time it comes round.
	httpBatches = 1024
	// httpReplayLookups is how many cold lookups the traced run replays.
	httpReplayLookups = 20000
)

// httpWorkers is the generator's concurrency: one keep-alive
// connection and one goroutine per CPU.
var httpWorkers = runtime.NumCPU()

// lookupJSON mirrors one /v1/geolocate result.
type lookupJSON struct {
	Hostname string `json:"hostname"`
	Located  bool   `json:"located"`
	Suffix   string `json:"suffix"`
	Hint     string `json:"hint"`
	Type     string `json:"type"`
	Learned  bool   `json:"learned"`
	Location *struct {
		City    string  `json:"city"`
		Region  string  `json:"region"`
		Country string  `json:"country"`
		Lat     float64 `json:"lat"`
		Long    float64 `json:"long"`
	} `json:"location"`
}

// checkLookup compares one served result with the oracle's lookup.
func checkLookup(got lookupJSON, host string, g *core.Geolocation, ok bool) error {
	located := ok && g.Loc != nil
	switch {
	case got.Hostname != host:
		return fmt.Errorf("result for %q where %q was asked", got.Hostname, host)
	case got.Located != located:
		return fmt.Errorf("%s: located=%v, want %v", host, got.Located, located)
	case !located:
		return nil
	case got.Location == nil:
		return fmt.Errorf("%s: located without a location", host)
	}
	l := got.Location
	if got.Suffix != g.Suffix || got.Hint != g.Hint || got.Type != g.Type.String() || got.Learned != g.Learned ||
		l.City != g.Loc.City || l.Region != g.Loc.Region || l.Country != g.Loc.Country ||
		l.Lat != g.Loc.Pos.Lat || l.Long != g.Loc.Pos.Long {
		return fmt.Errorf("%s: served %+v %+v, want suffix=%s hint=%s type=%s learned=%v at %s %v",
			host, got, *l, g.Suffix, g.Hint, g.Type, g.Learned, g.Loc, g.Loc.Pos)
	}
	return nil
}

// httpBatchSet is the seeded request stream: batch bodies drawn
// uniformly from every corpus hostname, sent in order and cycled.
type httpBatchSet struct {
	hosts  [][]string
	bodies [][]byte
}

func newHTTPBatches(seed int64, all []string) (*httpBatchSet, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x68747470))
	s := &httpBatchSet{}
	for i := 0; i < httpBatches; i++ {
		hosts := make([]string, httpBatchSize)
		for j := range hosts {
			hosts[j] = all[rng.Intn(len(all))]
		}
		body, err := json.Marshal(map[string][]string{"hostnames": hosts})
		if err != nil {
			return nil, err
		}
		s.hosts = append(s.hosts, hosts)
		s.bodies = append(s.bodies, body)
	}
	return s, nil
}

// httpChecker verifies batch responses against the oracle, remembering
// each batch's verified body so a repeat costs a comparison.
type httpChecker struct {
	oracle   *geoloc.Index
	mu       sync.Mutex
	verified map[int][]byte
}

func (c *httpChecker) check(batch int, hosts []string, body []byte) error {
	c.mu.Lock()
	v := c.verified[batch]
	c.mu.Unlock()
	if v != nil && bytes.Equal(v, body) {
		return nil
	}
	var resp struct {
		Results []lookupJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("batch %d: undecodable response: %v", batch, err)
	}
	if len(resp.Results) != len(hosts) {
		return fmt.Errorf("batch %d: %d results for %d hostnames", batch, len(resp.Results), len(hosts))
	}
	for i, h := range hosts {
		g, ok := c.oracle.Lookup(h)
		if err := checkLookup(resp.Results[i], h, g, ok); err != nil {
			return fmt.Errorf("batch %d: %w", batch, err)
		}
	}
	c.mu.Lock()
	c.verified[batch] = bytes.Clone(body)
	c.mu.Unlock()
	return nil
}

// reloadRecord is one admin reload as the client saw it, with the
// daemon's own build/swap gauges scraped right after.
type reloadRecord struct {
	client, build, swap time.Duration
}

// httpGen is the http-cold-reload load generator: httpWorkers
// goroutines, each pacing its own keep-alive connection, taking request
// indices from one shared open-loop schedule. The reload and the scrapes
// around it are sent by whichever worker finds one due, so they occupy a
// connection like any request and queue the load behind them.
type httpGen struct {
	client  *http.Client
	base    string
	batches *httpBatchSet
	check   *httpChecker
	offset  int // batches already sent, so windows continue the cycle

	reloadStart time.Time
	reloadsDue  atomic.Int64
	mu          sync.Mutex
	generation  uint64
	reloads     []reloadRecord
	counters    *genCounters // non-nil while a traced window scrapes
	ctlErr      error
}

func newHTTPGen(addr string, batches *httpBatchSet, check *httpChecker) *httpGen {
	tr := &http.Transport{
		MaxConnsPerHost:     httpWorkers,
		MaxIdleConnsPerHost: httpWorkers,
		DisableCompression:  true,
	}
	return &httpGen{
		client:     &http.Client{Transport: tr, Timeout: 10 * time.Second},
		base:       "http://" + addr,
		batches:    batches,
		check:      check,
		generation: 1,
	}
}

func (g *httpGen) close() { g.client.CloseIdleConnections() }

// post sends one batch and returns the response body.
func (g *httpGen) post(path string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := g.client.Post(g.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// single geolocates one hostname and checks the answer (set-up probe).
func (g *httpGen) single(host string) error {
	body, _ := json.Marshal(map[string]string{"hostname": host})
	var buf bytes.Buffer
	code, err := g.post("/v1/geolocate", body, &buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("geolocate %s: status %d: %s", host, code, buf.String())
	}
	var got lookupJSON
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		return err
	}
	ix := g.check.oracle
	r, ok := ix.Lookup(host)
	return checkLookup(got, host, r, ok)
}

// control runs one due reload: scrape, reload, scrape.
func (g *httpGen) control(buf *bytes.Buffer) {
	g.scrape()
	t0 := time.Now()
	code, err := g.post("/v1/admin/reload", nil, buf)
	took := time.Since(t0)
	var st struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(buf.Bytes(), &st)
	}
	s := g.scrape()
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case err != nil:
		g.ctlErr = fmt.Errorf("reload: %w", err)
	case code != http.StatusOK || st.Status != "ok" || st.Generation != g.generation+1:
		g.ctlErr = fmt.Errorf("reload: status %d, generation %d after %d: %s", code, st.Generation, g.generation, buf.String())
	default:
		g.generation = st.Generation
		rr := reloadRecord{client: took}
		if s != nil {
			rr.build = time.Duration(s["geoserve_reload_build_seconds"] * float64(time.Second))
			rr.swap = time.Duration(s["geoserve_reload_swap_seconds"] * float64(time.Second))
		}
		g.reloads = append(g.reloads, rr)
	}
}

// scrape fetches /metrics/prom and folds it into the per-generation
// counters when a traced window is collecting them.
func (g *httpGen) scrape() scrape {
	s, err := fetchProm(g.client, g.base+"/metrics/prom")
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.ctlErr = err
		return nil
	}
	if g.counters != nil {
		if err := g.counters.observe(s); err != nil {
			g.ctlErr = err
		}
	}
	return s
}

// reloadDue claims the next reload if its time has come.
func (g *httpGen) reloadDue() bool {
	k := g.reloadsDue.Load()
	due := g.reloadStart.Add(time.Duration(k+1) * reloadEvery)
	return time.Now().After(due) && g.reloadsDue.CompareAndSwap(k, k+1)
}

// run sends the window's batches on schedule. recs, when non-nil, holds
// one span recorder per worker.
func (g *httpGen) run(s schedule, recs []*recorder) *window {
	w := newWindow(s)
	var next atomic.Int64
	var mu sync.Mutex // guards w.lost and w.mismatch across workers
	var wg sync.WaitGroup
	for k := 0; k < httpWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := newPacer()
			defer p.release()
			var buf bytes.Buffer
			for {
				if g.reloadDue() {
					g.control(&buf)
				}
				i := int(next.Add(1) - 1)
				if i >= s.n {
					return
				}
				picked := time.Now()
				p.sleepUntil(s.due(i))
				b := (g.offset + i) % len(g.batches.bodies)
				sent := time.Now()
				// The generator's own lateness: past the due time, or
				// past the moment a busy worker got to the request,
				// whichever is later. Waiting for a free connection is
				// queueing the server caused; it shows in the latency,
				// which is timed from the due time.
				w.lag[i] = sent.Sub(maxTime(s.due(i), picked))
				code, err := g.post("/v1/geolocate", g.batches.bodies[b], &buf)
				done := time.Now()
				if err != nil {
					mu.Lock()
					w.lost++
					mu.Unlock()
					continue
				}
				if code != http.StatusOK {
					err = fmt.Errorf("batch %d: status %d: %s", b, code, buf.String())
				}
				if err == nil {
					err = g.check.check(b, g.batches.hosts[b], buf.Bytes())
				}
				if err != nil {
					mu.Lock()
					w.mismatch("%v", err)
					mu.Unlock()
					continue
				}
				w.lat[i] = s.latency(i, done)
				if recs != nil {
					recs[k].record("client.http_batch", 0, int64(i), sent, done)
				}
			}
		}(k)
	}
	wg.Wait()
	g.offset += s.n
	return w
}

// runHTTP is the http-cold-reload workload: geoserve as shipped serving
// the seed's learned snapshot, under open-loop batch lookups drawn
// uniformly from every hostname, with an admin reload every 5s.
func runHTTP(e *env) (*outcome, error) {
	defer pacerProcs()()
	w, err := genWorld(e.seed)
	if err != nil {
		return nil, err
	}
	art, err := learnedArtifacts(e, w)
	if err != nil {
		return nil, err
	}
	oracle, err := loadOracle(art.snap)
	if err != nil {
		return nil, err
	}
	all := hostnames(w.Corpus)
	batches, err := newHTTPBatches(e.seed, all)
	if err != nil {
		return nil, err
	}
	check := &httpChecker{oracle: oracle, verified: make(map[int][]byte)}
	var probeHost string
	for _, h := range all {
		if g, ok := oracle.Lookup(h); ok && g.Loc != nil {
			probeHost = h
			break
		}
	}
	out := newOutcome()

	args := []string{"-snapshot", art.snap, "-addr", "127.0.0.1:0"}
	var setupWall, setupCPU []float64
	setupT0 := time.Now()
	var d *daemon
	var gen *httpGen
	defer func() {
		if gen != nil {
			gen.close()
		}
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if d, err = startDaemon(e.bin("geoserve"), args, false); err != nil {
			return nil, err
		}
		gen = newHTTPGen(d.addr, batches, check)
		out.attempted++
		if err := gen.single(probeHost); err != nil {
			out.failed++
			out.wrong++
			fmt.Printf("http-cold-reload MISMATCH at set-up: %v\n", err)
		}
		wall, cpu, err := d.setupTimes()
		if err != nil {
			return nil, err
		}
		setupWall, setupCPU = append(setupWall, wall), append(setupCPU, cpu)
		if i < setupRepeats-1 {
			gen.close()
			gen = nil
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
	}
	setupT1 := time.Now()

	gen.reloadStart = time.Now()
	runAt := func(rate float64, dur time.Duration, recs []*recorder) (*window, time.Duration, error) {
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return nil, 0, err
		}
		win := gen.run(newSchedule(time.Now().Add(10*time.Millisecond), rate, dur), recs)
		cpu1, err := procCPU(d.pid())
		return win, cpu1 - cpu0, err
	}
	if e.trace {
		return traceHTTP(e, out, gen, art.snap, func(recs []*recorder) (*window, error) {
			win, _, err := runAt(httpRefRate, e.measure(0.4), recs)
			return win, err
		})
	}

	sv, err := measureServing(e, httpLadder, httpRefRate, httpSLO, func(rate float64, dur time.Duration) (*window, time.Duration, error) {
		return runAt(rate, dur, nil)
	})
	if err != nil {
		return nil, err
	}
	if gen.ctlErr != nil {
		return nil, gen.ctlErr
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	tp, ppv, err := snapshotAccuracy(w, art.snap)
	if err != nil {
		return nil, err
	}
	if err := finishServing(e, "http-cold-reload", out, sv, servingFacts{
		setupCPU: setupCPU, setupWall: setupWall, setupT0: setupT0, setupT1: setupT1, rss: rss, tp: tp, ppv: ppv,
		refRate: httpRefRate, slo: httpSLO, unit: "req/s", daemon: "geoserve",
	}); err != nil {
		return nil, err
	}
	var reloadMS []float64
	for _, r := range gen.reloads {
		reloadMS = append(reloadMS, float64(r.client)/float64(time.Millisecond))
	}
	report("http-cold-reload", "reload_ms", median(reloadMS), "ms", fmt.Sprintf("client-seen, median of %d", len(reloadMS)))
	return out, nil
}

// traceHTTP is http-cold-reload's traced run: an untraced and a traced
// reference window (the difference is the tracing overhead), geoserve's
// /metrics/prom diffed over the traced window, and an in-process replay
// of cold lookups, snapshot loads and spot checks.
func traceHTTP(e *env, out *outcome, gen *httpGen, snap string,
	refWindow func([]*recorder) (*window, error)) (*outcome, error) {
	m := out.metrics
	base, err := refWindow(nil)
	if err != nil {
		return nil, err
	}
	const route = `{route="POST /v1/geolocate"}`
	lookups, hits, matched := "geoserve_index_lookups_total", "geoserve_index_cache_hits_total", "geoserve_index_matched_total"
	gen.mu.Lock()
	gen.counters = newGenCounters("geoserve_index_generation", lookups, hits, matched)
	gen.reloads = nil
	gen.mu.Unlock()
	s0 := gen.scrape()
	t0 := time.Now()
	recs := make([]*recorder, httpWorkers)
	for k := range recs {
		recs[k] = newRecorder(t0, k*10_000_000)
	}
	traced, err := refWindow(recs)
	if err != nil {
		return nil, err
	}
	s1 := gen.scrape()
	if gen.ctlErr != nil {
		return nil, gen.ctlErr
	}
	for _, w := range []*window{base, traced} {
		out.attempted += int64(w.sched.n)
		out.failed += int64(w.failed())
		out.wrong += int64(w.wrong)
		printMismatches("http-cold-reload", w)
	}
	bl, tl := summarize(base.answered()), summarize(traced.answered())
	reqs := s1["geoserve_route_requests_total"+route] - s0["geoserve_route_requests_total"+route]
	routeUS := (s1["geoserve_route_seconds_total"+route] - s0["geoserve_route_seconds_total"+route]) / reqs * 1e6
	batchSpan := `geoserve_span_seconds_total{span="lookup-batch"}`
	batchUS := (s1[batchSpan] - s0[batchSpan]) / reqs * 1e6
	var clientUS []float64
	for _, l := range traced.answered() {
		clientUS = append(clientUS, float64(l)/float64(time.Microsecond))
	}
	var reloadMS, buildMS, swapMS []float64
	for _, r := range gen.reloads {
		reloadMS = append(reloadMS, float64(r.client)/float64(time.Millisecond))
		buildMS = append(buildMS, float64(r.build)/float64(time.Millisecond))
		swapMS = append(swapMS, float64(r.swap)/float64(time.Millisecond))
	}
	m["geoserve.route_us"] = routeUS
	m["geoloc.batch_us"] = batchUS
	m["geoserve.self_us"] = routeUS - batchUS
	m["geoloc.cache_hit_ratio"] = gen.counters.total(hits) / gen.counters.total(lookups)
	m["geoloc.match_ratio"] = gen.counters.total(matched) / gen.counters.total(lookups)
	m["client.queue_us"] = mean(clientUS) - routeUS
	m["geoserve.reload_build_ms"] = median(buildMS)
	m["geoserve.reload_swap_ms"] = median(swapMS)
	m["geoserve.reload_ms"] = median(reloadMS)
	m["gen.lag_p99_ms"] = traced.lagP99()
	m["trace.overhead_ms"] = tl.P50 - bl.P50

	// In-process replay: cold lookups over the request stream, snapshot
	// loads, and the reload's spot check between two loaded indexes.
	raw, err := os.ReadFile(snap)
	if err != nil {
		return nil, err
	}
	replay := newRecorder(t0, httpWorkers*10_000_000)
	cold, err := geoloc.Load(bytes.NewReader(raw), geoloc.Options{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, hosts := range gen.batches.hosts {
		for _, h := range hosts {
			if n == httpReplayLookups {
				break
			}
			sp := replay.start("geoloc.Index.Lookup/cold", 0, int64(n))
			cold.Lookup(h)
			replay.end(sp)
			n++
		}
	}
	var prev *geoloc.Index
	for i := 0; i < setupRepeats; i++ {
		sp := replay.start("geoloc.Load", 0, int64(i))
		ix, err := geoloc.Load(bytes.NewReader(raw), geoloc.Options{})
		replay.end(sp)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			sp := replay.start("geoloc.SpotCheck", 0, int64(i))
			err := geoloc.SpotCheck(prev, ix, 16)
			replay.end(sp)
			if err != nil {
				return nil, err
			}
		}
		prev = ix
	}
	groups := byName(replay.spans)
	m["geoloc.lookup_cold_us"] = meanUS(groups["geoloc.Index.Lookup/cold"])
	m["geoloc.load_ms"] = medianMS(groups["geoloc.Load"])
	m["geoloc.spotcheck_us"] = medianMS(groups["geoloc.SpotCheck"]) * 1e3

	spans := replay.spans
	for _, r := range recs {
		spans = append(spans, r.spans...)
	}
	path, err := writeTrace(e, "http-cold-reload", spans)
	if err != nil {
		return nil, err
	}
	reportAll("http-cold-reload", m, perLayer)
	report("http-cold-reload", "trace", float64(len(spans)), "spans", path)
	report("http-cold-reload", "latency_p50_ms (untraced)", bl.P50, "ms", fmt.Sprintf("n=%d", bl.N))
	report("http-cold-reload", "latency_p50_ms (traced)", tl.P50, "ms", fmt.Sprintf("n=%d", tl.N))
	report("http-cold-reload", "latency_p99_ms (untraced)", bl.P99, "ms", "")
	report("http-cold-reload", "latency_p99_ms (traced)", tl.P99, "ms", "")
	report("http-cold-reload", "reloads in traced window", float64(len(gen.reloads)), "count", "")
	if r := m["geoloc.cache_hit_ratio"]; !(r <= httpMaxHitRatio) {
		return nil, fmt.Errorf("geoloc.cache_hit_ratio %.4g is above %g: http-cold-reload's lookups no longer miss the cache", r, httpMaxHitRatio)
	}
	return out, nil
}

// medianMS returns the median of durations in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return median(xs)
}
