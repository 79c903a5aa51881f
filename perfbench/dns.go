package main

import (
	"fmt"
	"net/http"
	"net/netip"
	"runtime"
	"time"

	"hoiho/internal/dnsserve"
	"hoiho/internal/dnswire"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
)

// dns-hot settings. README.md records why each has its value.
var (
	dnsSLO     = 5 * time.Millisecond
	dnsRefRate = 8000.0
	dnsLadder  = ladder{lo: 2000, hi: 32000, step: 1.08}
	// dnsMinHitRatio is the least share of lookups the index must answer
	// from its cache for dns-hot to measure what it claims to; the
	// traced run fails below it.
	dnsMinHitRatio = 0.95
)

// dnsReplayQueries is how many queries of the recorded stream the
// traced run replays in-process.
const dnsReplayQueries = 20000

// runDNS is the dns-hot workload: geodns as shipped serving the seed's
// learned snapshot, under open-loop UDP load on cache-resident names.
func runDNS(e *env) (*outcome, error) {
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
	var located []string
	for _, h := range hostnames(w.Corpus) {
		if g, ok := oracle.Lookup(h); ok && g.Loc != nil {
			located = append(located, h)
		}
	}
	stream, err := newDNSStream(e.seed, located, nxNames(oracle, dnsNXNames))
	if err != nil {
		return nil, err
	}
	check := newDNSChecker(oracle, stream.keys)
	out := newOutcome()

	args := []string{"-snapshot", art.snap, "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}
	var setupWall, setupCPU []float64
	setupT0 := time.Now()
	var d *daemon
	var gen *udpGen
	defer func() {
		if gen != nil {
			gen.close()
		}
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if d, err = startDaemon(e.bin("geodns"), args, true); err != nil {
			return nil, err
		}
		if gen, err = newUDPGen(d.addr, stream, check); err != nil {
			return nil, err
		}
		out.attempted++
		if err := gen.query(0, 10*time.Second); err != nil {
			out.failed++
			out.wrong++
			fmt.Printf("dns-hot MISMATCH at set-up: %v\n", err)
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

	// Warm-up: every distinct question once, closed-loop, which fills
	// the LRU with the whole name pool and checks each answer.
	for k := range stream.keys {
		out.attempted++
		if err := gen.query(int32(k), 2*time.Second); err != nil {
			out.failed++
			out.wrong++
			fmt.Printf("dns-hot MISMATCH at warm-up: %v\n", err)
		}
	}
	if out.wrong > 0 {
		return out, nil
	}

	runAt := func(rate float64, dur time.Duration, rec *recorder) (*window, time.Duration, error) {
		s := newSchedule(time.Now().Add(10*time.Millisecond), rate, dur)
		keys := stream.take(s.n)
		cpu0, err := procCPU(d.pid())
		if err != nil {
			return nil, 0, err
		}
		win := gen.run(s, keys, rec)
		cpu1, err := procCPU(d.pid())
		return win, cpu1 - cpu0, err
	}
	if e.trace {
		return traceDNS(e, out, d, gen, stream, art.snap, func(rec *recorder) (*window, error) {
			win, _, err := runAt(dnsRefRate, e.measure(0.4), rec)
			return win, err
		})
	}

	sv, err := measureServing(e, dnsLadder, dnsRefRate, dnsSLO, func(rate float64, dur time.Duration) (*window, time.Duration, error) {
		return runAt(rate, dur, nil)
	})
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	tp, ppv, err := snapshotAccuracy(w, art.snap)
	if err != nil {
		return nil, err
	}
	if err := finishServing(e, "dns-hot", out, sv, servingFacts{
		setupCPU: setupCPU, setupWall: setupWall, setupT0: setupT0, setupT1: setupT1, rss: rss, tp: tp, ppv: ppv,
		refRate: dnsRefRate, slo: dnsSLO, unit: "qps", daemon: "geodns",
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// traceDNS is dns-hot's traced run: an untraced and a traced reference
// window against the daemon (the difference is the tracing overhead),
// the admin scrape around the traced window, and an in-process replay
// of the recorded query stream through each layer's public calls.
func traceDNS(e *env, out *outcome, d *daemon, gen *udpGen, stream *dnsStream,
	snap string, refWindow func(*recorder) (*window, error)) (*outcome, error) {
	m := out.metrics
	base, err := refWindow(nil)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	promURL := "http://" + d.admin + "/metrics/prom"
	idx := newGenCounters("geodns_index_generation", "geodns_index_lookups_total", "geodns_index_cache_hits_total")
	s0, err := fetchProm(client, promURL)
	if err != nil {
		return nil, err
	}
	if err := idx.observe(s0); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rec := newRecorder(t0, 0)
	gen.replyBytes.Store(0)
	gen.replies.Store(0)
	traced, err := refWindow(rec)
	if err != nil {
		return nil, err
	}
	s1, err := fetchProm(client, promURL)
	if err != nil {
		return nil, err
	}
	if err := idx.observe(s1); err != nil {
		return nil, err
	}
	for _, w := range []*window{base, traced} {
		out.attempted += int64(w.sched.n)
		out.failed += int64(w.failed())
		out.wrong += int64(w.wrong)
		printMismatches("dns-hot", w)
	}
	bl, tl := summarize(base.answered()), summarize(traced.answered())
	m["trace.overhead_ms"] = tl.P50 - bl.P50
	m["geoloc.cache_hit_ratio"] = idx.total("geodns_index_cache_hits_total") / idx.total("geodns_index_lookups_total")
	m["geodns.reply_bytes_mean"] = float64(gen.replyBytes.Load()) / float64(max(gen.replies.Load(), 1))
	m["gen.lag_p99_ms"] = traced.lagP99()
	m["udp.lost"] = float64(traced.lost)

	// In-process replay of the recorded stream, one public call at a
	// time, on a warm cache.
	ix, err := loadIndexFile(snap, geoloc.Options{})
	if err != nil {
		return nil, err
	}
	keys := stream.take(dnsReplayQueries)
	for _, k := range keys {
		ix.Lookup(stream.keys[k].name)
	}
	replay := newRecorder(t0, len(rec.spans))
	src := netip.MustParseAddr("127.0.0.1")
	traceSrv := dnsserve.New(ix, dnsserve.Config{Tracer: obs.New(obs.Options{})})
	bareSrv := dnsserve.New(ix, dnsserve.Config{})
	pkts := make([][]byte, len(keys))
	replies := make([]*dnswire.Message, len(keys))
	for i, k := range keys {
		pkts[i] = stream.packets[k]
	}
	replayOne := func(replay *recorder, i int) error {
		pkt, req := pkts[i], int64(i)
		root := replay.start("replay.dns_query", 0, req)
		sp := replay.start("dnswire.Unpack", root, req)
		q, err := dnswire.Unpack(pkt)
		replay.end(sp)
		if err != nil {
			return err
		}
		question := q.Questions[0]
		sp = replay.start("geoloc.Index.Lookup", root, req)
		g, ok := ix.Lookup(question.Name)
		replay.end(sp)
		r := dnswire.Reply(q)
		r.Authoritative = true
		r.EDNS = &dnswire.EDNS{UDPSize: dnsEDNSSize}
		sp = replay.start("geoloc.answer", root, req)
		var data dnswire.RData
		if ok && g.Loc != nil {
			switch question.Type {
			case dnswire.TypeTXT:
				data = dnswire.TXT(geoloc.AnswerStrings(g))
			case dnswire.TypePTR:
				data = dnswire.PTR(geoloc.PTRTarget(g))
			case dnswire.TypeLOC:
				data = dnswire.NewLOC(g.Loc.Pos.Lat, g.Loc.Pos.Long)
			}
		}
		replay.end(sp)
		if data != nil {
			r.Answers = append(r.Answers, dnswire.RR{Name: question.Name, Class: dnswire.ClassINET, TTL: 300, Data: data})
		} else {
			r.RCode = dnswire.RCodeNXDomain
		}
		sp = replay.start("dnswire.PackTruncated", root, req)
		_, err = r.PackTruncated(dnsEDNSSize)
		replay.end(sp)
		if err != nil {
			return err
		}
		replay.end(root)
		replies[i] = r
		sp = replay.start("dnsserve.HandlePacket", 0, req)
		traceSrv.HandlePacket(pkt, src, false)
		replay.end(sp)
		sp = replay.start("dnsserve.HandlePacket/nil-tracer", 0, req)
		bareSrv.HandlePacket(pkt, src, false)
		replay.end(sp)
		return nil
	}
	// One untimed pass first, so every call runs warm; the timed pass
	// records into a recorder sized up front so its own growth does not
	// land inside a span.
	for _, rr := range []*recorder{newRecorder(t0, 0), replay} {
		rr.spans = make([]span, 0, 7*len(pkts))
		runtime.GC()
		for i := range pkts {
			if err := replayOne(rr, i); err != nil {
				return nil, err
			}
		}
	}
	groups := byName(replay.spans)
	unpack, lookup := meanUS(groups["dnswire.Unpack"]), meanUS(groups["geoloc.Index.Lookup"])
	answer, pack := meanUS(groups["geoloc.answer"]), meanUS(groups["dnswire.PackTruncated"])
	handle := meanUS(groups["dnsserve.HandlePacket"])
	m["dnswire.unpack_us"] = unpack
	m["geoloc.lookup_us"] = lookup
	m["geoloc.answer_strings_us"] = answer
	m["dnswire.pack_us"] = pack
	m["dnsserve.handle_us"] = handle
	m["dnsserve.self_us"] = handle - (unpack + lookup + answer + pack)
	m["obs.tracer_overhead_us"] = handle - meanUS(groups["dnsserve.HandlePacket/nil-tracer"])

	// Allocations per call, counted over the whole stream outside the
	// span-timed pass so the recorder's own appends do not count.
	m["dnswire.pack_allocs"] = allocsPerCall(len(replies), func(i int) { _, _ = replies[i].PackTruncated(dnsEDNSSize) })
	m["dnsserve.handle_allocs"] = allocsPerCall(len(pkts), func(i int) { traceSrv.HandlePacket(pkts[i], src, false) })

	path, err := writeTrace(e, "dns-hot", append(rec.spans, replay.spans...))
	if err != nil {
		return nil, err
	}
	reportAll("dns-hot", m, perLayer)
	report("dns-hot", "trace", float64(len(rec.spans)+len(replay.spans)), "spans", path)
	report("dns-hot", "latency_p50_ms (untraced)", bl.P50, "ms", fmt.Sprintf("n=%d", bl.N))
	report("dns-hot", "latency_p50_ms (traced)", tl.P50, "ms", fmt.Sprintf("n=%d", tl.N))
	report("dns-hot", "latency_p99_ms (untraced)", bl.P99, "ms", "")
	report("dns-hot", "latency_p99_ms (traced)", tl.P99, "ms", "")
	if r := m["geoloc.cache_hit_ratio"]; !(r >= dnsMinHitRatio) {
		return nil, fmt.Errorf("geoloc.cache_hit_ratio %.4g is below %g: the index no longer answers dns-hot from its cache", r, dnsMinHitRatio)
	}
	return out, nil
}

// allocsPerCall runs f(i) for i in [0, n) and returns heap allocations
// per call.
func allocsPerCall(n int, f func(int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
