package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/daemon"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// maxBatch bounds one POST /v1/geolocate request; larger workloads
// paginate. The bound keeps a single request from pinning the server on
// one client's megabatch.
const maxBatch = 10000

// maxHostnameLen is the DNS limit on a hostname's text form.
const maxHostnameLen = 253

// maxBodyBytes caps a /v1 request body before it is decoded: a full
// batch of maximum-length hostnames, each quoted and comma-separated,
// plus room for the enclosing object and whitespace. Without it a
// client could make the server buffer a body of any size.
const maxBodyBytes = maxBatch*(maxHostnameLen+3) + 4096

// server is the geoserve HTTP API over a hot-swappable compiled lookup
// index. Lookups go through live — an atomic pointer to the current
// Index — so a reload never blocks or fails a request: handlers load
// the pointer once, the swap is a single atomic store, and the old
// index drains as in-flight requests finish (see DESIGN.md §10).
// Request totals and the latency histogram are atomics rendered by the
// /metrics/prom collectors.
type server struct {
	live     *geoloc.Live
	src      *geoloc.Source // reload input; nil disables /v1/admin/reload
	ixOpts   geoloc.Options // options every reload compiles with
	mux      *http.ServeMux
	tracer   *obs.Tracer       // aggregate-only: per-route spans for /metrics/prom
	prom     *promexp.Registry // /metrics/prom collectors, shared dialect with geodns
	qlog     *qlog.Logger      // sampled query log; nil (disabled) unless -qlog
	patterns []string          // registered route patterns, in registration order
	start    time.Time

	requests    atomic.Int64 // any route
	badRequests atomic.Int64 // 4xx responses
	hostnames   atomic.Int64 // submitted to /v1/geolocate
	// /v1/geolocate latency histogram: per-band counts over
	// latencyBounds (last slot is +Inf) and a microsecond sum.
	latency  [len(latencyBounds) + 1]atomic.Int64
	latSumUS atomic.Int64
}

func newServer(ix *geoloc.Index) *server {
	// Aggregate-only tracing: the daemon keeps per-route span rollups
	// forever but never retains raw spans, so memory stays constant no
	// matter how long it serves.
	return newTracedServer(ix, obs.New(obs.Options{}))
}

// newTracedServer wires an externally-built tracer, letting main share
// one tracer between the index (compile + batch spans) and the routes.
func newTracedServer(ix *geoloc.Index, tr *obs.Tracer) *server {
	s := &server{
		live:   geoloc.NewLive(ix),
		mux:    http.NewServeMux(),
		tracer: tr,
		start:  time.Now(),
	}
	s.prom = s.newPromRegistry()
	s.route("POST /v1/geolocate", s.handleGeolocate)
	s.route("GET /v1/explain", s.handleExplain)
	s.route("POST /v1/explain", s.handleExplain)
	s.route("POST /v1/admin/reload", s.handleReload)
	s.route("GET /healthz", daemon.Healthz(s.live, s.start))
	s.route("GET /metrics/prom", s.prom.ServeHTTP)
	daemon.RegisterPprof(s.mux)
	return s
}

// enableReload arms the hot-reload path: subsequent SIGHUPs and POSTs
// to /v1/admin/reload re-resolve src with opts and swap the result in.
func (s *server) enableReload(src *geoloc.Source, opts geoloc.Options) {
	s.src, s.ixOpts = src, opts
}

// enableQlog attaches the sampled query log. Must be called before the
// server handles traffic; a nil logger leaves logging disabled at zero
// cost (every qlog call on the request path is a nil-receiver no-op).
func (s *server) enableQlog(l *qlog.Logger) {
	s.qlog = l
}

// route registers a handler wrapped in an "http" span keyed by the
// route pattern, feeding the per-route series of /metrics/prom. The span
// also counts the response's status class (2xx/4xx/5xx), captured by a
// statusWriter. Profiling routes stay unwrapped — a 30-second CPU
// profile would dominate every latency aggregate.
func (s *server) route(pattern string, h http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sp := s.tracer.Start("http")
		sp.SetKey(pattern)
		sp.Count("requests", 1)
		// With -qlog on, every request gets an id stamped on both its
		// span and its query-log record, so a slow span in a trace joins
		// against the access-log line that caused it. With qlog disabled
		// NextID returns "" and neither side allocates.
		id := s.qlog.NextID()
		if id != "" {
			sp.SetAttr("request_id", id)
		}
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		sp.Count("status_"+statusClass(sw.code), 1)
		sp.End()
		s.qlog.Log(qlog.Record{
			Front:      "http",
			Op:         pattern,
			ID:         id,
			Hostname:   sw.hostname,
			Source:     r.RemoteAddr,
			Status:     sw.code,
			Outcome:    statusClass(sw.code),
			DurUS:      int64(time.Since(t0) / time.Microsecond),
			Generation: s.live.Generation(),
		})
	})
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly) and carries the looked-up
// hostname back out to the query-log record for single-hostname ops
// (set via logHostname; batch requests leave it empty).
type statusWriter struct {
	http.ResponseWriter
	code     int
	hostname string
}

// logHostname records the hostname a single-lookup handler served, so
// the route middleware's query-log record carries it. A no-op when the
// middleware did not wrap the writer (profiling routes, tests driving
// handlers directly).
func logHostname(w http.ResponseWriter, hostname string) {
	if sw, ok := w.(*statusWriter); ok {
		sw.hostname = hostname
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClass buckets a status code into "2xx" / "4xx" / ... form.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		// The mux's own 404/405 responses are plain text; under /v1 they
		// are rewritten into the JSON error envelope so every API error
		// has one shape.
		w = &v1ErrorWriter{ResponseWriter: w, srv: s}
	}
	s.mux.ServeHTTP(w, r)
}

// apiError is the uniform /v1 error envelope: every error response is
// {"error":{"code":...,"message":...}} with a stable machine-readable
// code and a human-readable message (documented in README "Errors").
type apiError struct {
	Error apiErrorDetail `json:"error"`
}

type apiErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError emits the envelope with the given status. 4xx responses
// count in geoserve_bad_requests_total.
func (s *server) writeError(w http.ResponseWriter, status int, code, msg string) {
	if status >= 400 && status < 500 {
		s.badRequests.Add(1)
	}
	writeJSON(w, status, apiError{apiErrorDetail{Code: code, Message: msg}})
}

// v1ErrorWriter rewrites the mux's built-in plain-text error responses
// (unknown /v1 path → 404, wrong method → 405) into the envelope,
// preserving the status code and any Allow header the mux set.
type v1ErrorWriter struct {
	http.ResponseWriter
	srv         *server
	intercepted bool
}

func (w *v1ErrorWriter) WriteHeader(status int) {
	if status != http.StatusNotFound && status != http.StatusMethodNotAllowed {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.intercepted = true
	w.srv.badRequests.Add(1)
	code, msg := "not_found", "no such endpoint"
	if status == http.StatusMethodNotAllowed {
		code, msg = "method_not_allowed", "method not allowed for this endpoint"
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	w.ResponseWriter.WriteHeader(status)
	enc := json.NewEncoder(w.ResponseWriter)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr an Encode failure here means the client disconnected; the response is already committed
	enc.Encode(apiError{apiErrorDetail{Code: code, Message: msg}})
}

// Write swallows the original plain-text body once the envelope has
// been written in its place.
func (w *v1ErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// lookupRequest is the /v1/geolocate body: exactly one of hostname
// (single) or hostnames (batch).
type lookupRequest struct {
	Hostname  string   `json:"hostname,omitempty"`
	Hostnames []string `json:"hostnames,omitempty"`
}

// lookupResult is the JSON shape of one geolocated hostname.
type lookupResult struct {
	Hostname string        `json:"hostname"`
	Located  bool          `json:"located"`
	Suffix   string        `json:"suffix,omitempty"`
	Hint     string        `json:"hint,omitempty"`
	Type     string        `json:"type,omitempty"`
	Learned  bool          `json:"learned,omitempty"`
	Location *locationJSON `json:"location,omitempty"`
}

type locationJSON struct {
	City    string  `json:"city"`
	Region  string  `json:"region,omitempty"`
	Country string  `json:"country"`
	Lat     float64 `json:"lat"`
	Long    float64 `json:"long"`
}

type batchResponse struct {
	Results []lookupResult `json:"results"`
}

func toResult(hostname string, g *core.Geolocation) lookupResult {
	if g == nil {
		return lookupResult{Hostname: hostname}
	}
	return lookupResult{
		Hostname: hostname,
		Located:  true,
		Suffix:   g.Suffix,
		Hint:     g.Hint,
		Type:     g.Type.String(),
		Learned:  g.Learned,
		Location: &locationJSON{
			City: g.Loc.City, Region: g.Loc.Region, Country: g.Loc.Country,
			Lat: g.Loc.Pos.Lat, Long: g.Loc.Pos.Long,
		},
	}
}

func (s *server) handleGeolocate(w http.ResponseWriter, r *http.Request) {
	defer s.observeLatency(time.Now())
	// One pointer load per request: the whole request is served by a
	// single index generation even if a swap lands mid-flight.
	ix := s.live.Index()
	var req lookupRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	single := req.Hostname != ""
	batch := len(req.Hostnames) > 0
	switch {
	case single == batch:
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			`exactly one of "hostname" and "hostnames" is required`)
	case batch && len(req.Hostnames) > maxBatch:
		s.writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch exceeds %d hostnames", maxBatch))
	case single:
		s.hostnames.Add(1)
		logHostname(w, req.Hostname)
		g, _ := ix.Lookup(req.Hostname)
		writeJSON(w, http.StatusOK, toResult(req.Hostname, g))
	default:
		s.hostnames.Add(int64(len(req.Hostnames)))
		resp := batchResponse{Results: make([]lookupResult, len(req.Hostnames))}
		for i, g := range ix.LookupBatch(req.Hostnames) {
			resp.Results[i] = toResult(req.Hostnames[i], g)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// decodeBody decodes a JSON request body, capped at maxBodyBytes, into
// v. When it cannot, it writes the error envelope — 413 for an oversized
// body, 400 for a malformed one — and returns false.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "request_too_large",
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
	default:
		s.writeError(w, http.StatusBadRequest, "malformed_request",
			fmt.Sprintf("malformed request: %v", err))
	}
	return false
}

// explainRequest is the POST /v1/explain body; GET passes ?hostname=.
type explainRequest struct {
	Hostname string `json:"hostname"`
}

// handleExplain serves the full decision trace for one hostname: why
// it resolved where it did (or didn't) — suffix dispatch, every regex
// tried, overlay-vs-dictionary resolution, and the convention's
// published PPV evidence. JSON by default; `?format=text` returns the
// same deterministic report `hoiho -explain` prints.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var hostname string
	if r.Method == http.MethodGet {
		hostname = r.URL.Query().Get("hostname")
	} else {
		var req explainRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		hostname = req.Hostname
	}
	if hostname == "" {
		s.writeError(w, http.StatusBadRequest, "invalid_request",
			`"hostname" is required`)
		return
	}
	logHostname(w, hostname)
	ex := s.live.Index().Explain(hostname)
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		writeJSON(w, http.StatusOK, ex)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:ignore droppederr the status line is already on the wire; a write failure means the client hung up
		w.Write([]byte(ex.Text()))
	default:
		s.writeError(w, http.StatusBadRequest, "unknown_format",
			fmt.Sprintf("unknown format %q (want json or text)", f))
	}
}

// reloadStatus is the success body of /v1/admin/reload (see
// geoloc.Reloaded for the timings).
type reloadStatus struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Suffixes   int    `json:"suffixes"`
	BuildUS    int64  `json:"build_us"`
	SwapUS     int64  `json:"swap_us"`
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	rl, err := s.live.Reload(s.src, s.ixOpts)
	switch {
	case errors.Is(err, geoloc.ErrNoSource):
		s.writeError(w, http.StatusServiceUnavailable, "reload_unavailable", err.Error())
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "reload_failed", err.Error())
	default:
		writeJSON(w, http.StatusOK, reloadStatus{
			Status: "ok", Generation: rl.Generation, Suffixes: rl.Suffixes,
			BuildUS: rl.BuildUS, SwapUS: rl.SwapUS,
		})
	}
}

// latencyBounds are the upper bounds of the /v1/geolocate latency
// histogram, in ascending order; requests above the last bound land in
// the +Inf band.
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
}

func (s *server) observeLatency(start time.Time) {
	d := time.Since(start)
	s.latSumUS.Add(int64(d / time.Microsecond))
	band := len(latencyBounds)
	for i, le := range latencyBounds {
		if d <= le {
			band = i
			break
		}
	}
	s.latency[band].Add(1)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	//lint:ignore droppederr the status line is already on the wire; an Encode failure means the client hung up
	enc.Encode(v)
}
