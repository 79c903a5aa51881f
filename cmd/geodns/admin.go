// The geodns admin plane: a plain-HTTP sidecar listener (-admin-addr)
// carrying the operational surface that does not belong on the DNS
// port — Prometheus text exposition, a liveness document, and pprof.
// The exposition renders through the shared internal/promexp registry,
// the same layer geoserve serves from, so both daemons speak one
// dialect under one conformance test.
package main

import (
	"net/http"
	"time"

	"hoiho/internal/daemon"
	"hoiho/internal/dnsserve"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// admin serves /metrics/prom, /healthz, and /debug/pprof/ for a
// running dnsserve.Server.
type admin struct {
	s   *dnsserve.Server
	mux *http.ServeMux
}

// newAdmin wires the admin surface. ql may be nil (query log off).
func newAdmin(s *dnsserve.Server, ql *qlog.Logger) *admin {
	a := &admin{s: s, mux: http.NewServeMux()}
	prom := promexp.NewRegistry()
	prom.Register(a.promQueries, a.promLimiter, a.promEDNS,
		daemon.IndexMetrics("geodns", s.Live()), daemon.ReloadMetrics("geodns", s.Live()),
		daemon.QlogMetrics("geodns", ql))
	a.mux.HandleFunc("GET /metrics/prom", prom.ServeHTTP)
	a.mux.HandleFunc("GET /healthz", daemon.Healthz(s.Live(), time.Now()))
	daemon.RegisterPprof(a.mux)
	return a
}

func (a *admin) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.mux.ServeHTTP(w, r) }

// promQueries renders the per-query counter taxonomy: total queries,
// per-outcome response counts (the same names the query log and the
// shutdown stats line use), and TCP close errors.
func (a *admin) promQueries(pw *promexp.Writer) {
	st := a.s.Stats()
	pw.Counter("geodns_queries_total", "DNS queries received, UDP and TCP.",
		float64(st["queries"]))
	pw.Family("geodns_responses_total", "Responses per outcome (rcode taxonomy).", "counter")
	for _, k := range promexp.SortedKeys(st) {
		if k == "queries" || k == "close_errors" {
			continue
		}
		pw.Sample("geodns_responses_total", promexp.Labels("outcome", k), float64(st[k]))
	}
	pw.Counter("geodns_tcp_close_errors_total", "TCP connections that failed to close cleanly.",
		float64(st["close_errors"]))
}

// promLimiter renders the rate limiter's refusals and capacity-sweep
// evictions.
func (a *admin) promLimiter(pw *promexp.Writer) {
	pw.Counter("geodns_limiter_refused_total", "Queries refused by the per-source rate limit.",
		float64(a.s.Stats()["refused"]))
	pw.Counter("geodns_limiter_evictions_total", "Limiter buckets dropped by capacity sweeps.",
		float64(a.s.LimiterEvictions()))
}

// promEDNS renders the negotiated UDP response-size histogram.
func (a *admin) promEDNS(pw *promexp.Writer) {
	bounds, counts, sum := a.s.EDNSSizes()
	pw.Histogram("geodns_edns_udp_size_bytes",
		"Negotiated UDP response size limit per query (EDNS).",
		bounds, counts, float64(sum))
}
