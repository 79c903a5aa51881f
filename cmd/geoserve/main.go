// Command geoserve serves learned naming conventions over HTTP — the
// production shape of the paper's published-conventions workflow, where
// operators apply regexes at measurement scale rather than one hostname
// per process. Conventions come from any Source — a compiled-index
// snapshot (-snapshot, the fast path), a published conventions file
// (-nc), or a corpus to learn from (-corpus) — and are compiled once
// into an immutable geoloc.Index (regexes precompiled, learned geohints
// pre-resolved, results LRU-cached) served behind an atomic pointer.
//
// Usage:
//
//	geoserve -snapshot index.snap [-addr :8099]
//	geoserve -nc conventions.txt
//	geoserve -corpus data/aug2020 [-workers n] [-no-learn]
//
// Endpoints:
//
//	POST /v1/geolocate      {"hostname": "..."} or {"hostnames": [...]}
//	GET  /v1/explain        ?hostname=... — full decision trace for one
//	POST /v1/explain        hostname: suffix dispatch, each regex tried,
//	                        overlay-vs-dictionary resolution, and the
//	                        convention's PPV evidence; ?format=text renders
//	                        the hoiho -explain report
//	POST /v1/admin/reload   rebuild from the boot source, validate, swap
//	GET  /healthz           liveness, index size, serving generation, build info
//	GET  /metrics/prom      Prometheus text exposition, the one metrics
//	                        surface: requests, cache hits/misses, matches
//	                        by suffix and class, latency histogram, reload
//	                        lifecycle, per-route span aggregates with
//	                        status-class counts, query-log counters
//	GET  /debug/pprof/      net/http/pprof profiling (heap, profile, trace, ...)
//
// Reloads are zero-downtime: SIGHUP or POST /v1/admin/reload runs
// geoloc.Live.Reload, which re-resolves the boot source off the request
// path, spot-checks the replacement index against the live one, and
// swaps an atomic pointer; in-flight requests finish on the old index,
// which then drains to the garbage collector. Error responses across /v1
// share one JSON envelope: {"error":{"code":...,"message":...}}. Request
// bodies are capped (a full batch of 253-byte hostnames); a larger one
// is answered 413 request_too_large before it is decoded.
//
// With -runtime-sample <interval>, a background sampler records heap
// size, goroutine count, GC pause and scheduler-latency quantiles into
// a fixed-size ring; the newest sample is exported as gauges in
// /metrics/prom.
//
// With -qlog <path>, every handled request appends a sampled JSONL
// record (timestamp, request id, route, status, duration, serving
// generation) to a size-rotated access log; -qlog-sample keeps 1 in N.
// The request id is also stamped on the request's trace span, joining
// access-log lines to span aggregates. -version prints build info.
//
// The process drains in-flight requests and exits cleanly on SIGINT or
// SIGTERM. The flags, boot, query log, SIGHUP loop, drain, /healthz,
// pprof and the index/reload/qlog collectors are internal/daemon's,
// shared with geodns.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"hoiho/internal/daemon"
	"hoiho/internal/obs"
)

func main() {
	d := daemon.New("geoserve", flag.CommandLine)
	addr := flag.String("addr", ":8099", "listen address")
	runtimeSample := flag.Duration("runtime-sample", 0,
		"sample runtime telemetry (heap, goroutines, GC pauses) at this interval for /metrics/prom (0 disables)")
	d.Parse(os.Args[1:])

	// One aggregate-only tracer spans the daemon's lifetime: learning
	// (with -corpus), the index build, snapshot loads, reloads, per-batch
	// lookups, and per-route request handling all roll up into the
	// /metrics/prom route and span series.
	tracer := obs.New(obs.Options{})
	if *runtimeSample > 0 {
		stop := tracer.StartRuntimeSampler(obs.RuntimeOptions{Interval: *runtimeSample})
		defer stop()
	}

	ix, opts, err := d.Boot(tracer)
	if err != nil {
		d.Fatal(err)
	}
	s := newTracedServer(ix, tracer)
	s.enableReload(&d.Source, opts)
	ql, err := d.OpenQlog()
	if err != nil {
		d.Fatal(err)
	}
	defer d.CloseQlog(ql)
	s.enableQlog(ql)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		d.Fatal(err)
	}
	log.Printf("geoserve: listening on %s", ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP triggers the same validated hot swap as /v1/admin/reload.
	hupDone := d.ReloadOnHUP(ctx, s.live, opts)
	err = daemon.Serve(ctx, ln, s)
	stop() // release the hup loop even when serve failed on its own
	<-hupDone
	if err != nil {
		d.Fatal(err)
	}
	log.Print("geoserve: shut down cleanly")
}
