// Prometheus text exposition for geoserve's /metrics/prom, the
// daemon's one metrics surface: server totals, the /v1/geolocate
// latency histogram, per-route span aggregates with status-class
// counts and the runtime-telemetry sampler's latest snapshot are
// geoserve's own; the index, reload and query-log families come from
// internal/daemon, which renders the same collectors for cmd/geodns.
// Everything goes through the shared internal/promexp registry, so both
// daemons speak one exposition dialect under one conformance test.
package main

import (
	"strings"

	"hoiho/internal/daemon"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
)

// newPromRegistry assembles the server's exposition in a fixed section
// order: totals, latency, index, reload, routes, qlog, runtime.
func (s *server) newPromRegistry() *promexp.Registry {
	r := promexp.NewRegistry()
	r.Register(s.promTotals, s.promLatency,
		daemon.IndexMetrics("geoserve", s.live), daemon.ReloadMetrics("geoserve", s.live),
		s.promRoutes, s.promQlog, s.promRuntime)
	return r
}

// promTotals renders the server-wide request counters.
func (s *server) promTotals(pw *promexp.Writer) {
	pw.Counter("geoserve_requests_total", "HTTP requests received, any route.",
		float64(s.requests.Load()))
	pw.Counter("geoserve_bad_requests_total", "Requests rejected with a 4xx status.",
		float64(s.badRequests.Load()))
	pw.Counter("geoserve_hostnames_total", "Hostnames submitted to /v1/geolocate.",
		float64(s.hostnames.Load()))
}

// promLatency renders the request-duration histogram. The counters are
// per-band observations — exactly the shape promexp.Writer.Histogram
// cumulates from.
func (s *server) promLatency(pw *promexp.Writer) {
	bounds := make([]float64, len(latencyBounds))
	counts := make([]int64, len(s.latency))
	for i, le := range latencyBounds {
		bounds[i] = le.Seconds()
	}
	for i := range s.latency {
		counts[i] = s.latency[i].Load()
	}
	pw.Histogram("geoserve_request_duration_seconds", "Latency of /v1/geolocate requests.",
		bounds, counts, float64(s.latSumUS.Load())/1e6)
}

// promRoutes renders the per-route span aggregates: request counts,
// cumulative handler seconds, and status-class counts. Route rows come
// from the shared tracer's per-key table, filtered to the patterns this
// server registered (the tracer may also aggregate suffix keys when
// main shares it with the learning run). Span-name ("stage") rows are
// exported too — lookup-batch, geoloc-compile, http — so index and
// pipeline cost is scrapeable.
func (s *server) promRoutes(pw *promexp.Writer) {
	sum := s.tracer.Summary()
	registered := make(map[string]obs.SummaryRow, len(s.patterns))
	for _, row := range sum.Keys {
		registered[row.Name] = row
	}
	pw.Family("geoserve_route_requests_total", "Requests handled per route.", "counter")
	for _, pattern := range s.patterns {
		if row, ok := registered[pattern]; ok {
			pw.Sample("geoserve_route_requests_total", promexp.Labels("route", pattern), float64(row.Count))
		}
	}
	pw.Family("geoserve_route_seconds_total", "Cumulative handler time per route.", "counter")
	for _, pattern := range s.patterns {
		if row, ok := registered[pattern]; ok {
			pw.Sample("geoserve_route_seconds_total", promexp.Labels("route", pattern), float64(row.TotalUS)/1e6)
		}
	}
	pw.Family("geoserve_route_status_total", "Responses per route and status class.", "counter")
	for _, pattern := range s.patterns {
		row, ok := registered[pattern]
		if !ok {
			continue
		}
		for _, counter := range promexp.SortedKeys(row.Counters) {
			class, ok := strings.CutPrefix(counter, "status_")
			if !ok {
				continue
			}
			pw.Sample("geoserve_route_status_total",
				promexp.Labels("route", pattern, "class", class),
				float64(row.Counters[counter]))
		}
	}
	pw.Family("geoserve_span_count_total", "Finished spans per stage.", "counter")
	for _, row := range sum.Stages {
		pw.Sample("geoserve_span_count_total", promexp.Labels("span", row.Name), float64(row.Count))
	}
	pw.Family("geoserve_span_seconds_total", "Cumulative span time per stage.", "counter")
	for _, row := range sum.Stages {
		pw.Sample("geoserve_span_seconds_total", promexp.Labels("span", row.Name), float64(row.TotalUS)/1e6)
	}
}

// promQlog renders the query-log counters of the logger attached at
// scrape time (enableQlog runs after the registry is built).
func (s *server) promQlog(pw *promexp.Writer) {
	daemon.QlogMetrics("geoserve", s.qlog)(pw)
}

// promRuntime renders the newest runtime-telemetry sample as gauges.
// Nothing is emitted when the sampler is off (families with no samples
// are omitted entirely, per the format).
func (s *server) promRuntime(pw *promexp.Writer) {
	samples := s.tracer.RuntimeSamples()
	if len(samples) == 0 {
		return
	}
	latest := samples[len(samples)-1]
	pw.Gauge("geoserve_runtime_heap_bytes", "Heap bytes in use at the last runtime sample.",
		float64(latest.HeapBytes))
	pw.Gauge("geoserve_runtime_goroutines", "Goroutines at the last runtime sample.",
		float64(latest.Goroutines))
	pw.Family("geoserve_runtime_gc_pause_seconds", "GC pause quantiles at the last runtime sample.", "gauge")
	pw.Sample("geoserve_runtime_gc_pause_seconds", promexp.Labels("quantile", "0.5"), latest.GCPauseP50US/1e6)
	pw.Sample("geoserve_runtime_gc_pause_seconds", promexp.Labels("quantile", "0.99"), latest.GCPauseP99US/1e6)
	pw.Family("geoserve_runtime_sched_latency_seconds", "Scheduler latency quantiles at the last runtime sample.", "gauge")
	pw.Sample("geoserve_runtime_sched_latency_seconds", promexp.Labels("quantile", "0.5"), latest.SchedLatP50US/1e6)
	pw.Sample("geoserve_runtime_sched_latency_seconds", promexp.Labels("quantile", "0.99"), latest.SchedLatP99US/1e6)
}
