package main

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/psl"
)

const promContentType = promexp.ContentType

// promServer builds a traced server with the runtime sampler on and a
// request mix behind it: 3 geolocate hits (one batch), one 400, one
// health check.
func promServer(t *testing.T) *server {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(obs.Options{})
	stop := tr.StartRuntimeSampler(obs.RuntimeOptions{Interval: time.Hour})
	t.Cleanup(stop)
	ix, err := geoloc.New(res, geoloc.Options{
		Dict: geodict.MustDefault(), PSL: psl.MustDefault(), Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTracedServer(ix, tr)
	postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	postJSON(t, s, "/v1/geolocate", `{"hostnames":["a.core1.lhr1.he.net","b.unknown.org"]}`)
	postJSON(t, s, "/v1/geolocate", `{}`) // 400
	get(t, s, "/healthz")
	return s
}

// TestPromConformance is the text-exposition format gate, now enforced
// by the shared checker both daemons run: every sample belongs to a
// family announced by HELP and TYPE lines, label sets parse with valid
// escaping, and histogram bucket series are monotone cumulative over
// ascending le bounds ending at +Inf with _count equal to the +Inf
// bucket (promexp.Conform).
func TestPromConformance(t *testing.T) {
	s := promServer(t)
	w := get(t, s, "/metrics/prom")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != promContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promContentType)
	}
	body := w.Body.String()
	if err := promexp.Conform(w.Body.Bytes()); err != nil {
		t.Errorf("exposition not conformant: %v\n%s", err, body)
	}
	if !strings.Contains(body, "_bucket{") {
		t.Error("no histogram buckets in exposition")
	}

	// The request mix must be visible: 5 requests, 1 bad, 3 hostnames,
	// 3 histogram observations, runtime gauges from the live sampler.
	for _, want := range []string{
		"geoserve_requests_total 5",
		"geoserve_bad_requests_total 1",
		"geoserve_hostnames_total 3",
		`geoserve_request_duration_seconds_bucket{le="+Inf"} 3`,
		"geoserve_runtime_heap_bytes",
		"geoserve_runtime_goroutines",
		`geoserve_index_suffix_matches_total{suffix="he.net"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

// leLabel extracts the le label value from a bucket sample line.
func leLabel(t *testing.T, line string) string {
	t.Helper()
	m := regexp.MustCompile(`le="([^"]*)"`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("bucket sample without le label: %q", line)
	}
	return m[1]
}

// TestLatencyBucketOrder pins the numeric bucket order of the latency
// histogram — an expvar lexical sort once put "inf" first and "10ms"
// before "1ms".
func TestLatencyBucketOrder(t *testing.T) {
	s := promServer(t)

	prom := get(t, s, "/metrics/prom").Body.String()
	var les []string
	for _, line := range strings.Split(prom, "\n") {
		if strings.HasPrefix(line, "geoserve_request_duration_seconds_bucket") {
			les = append(les, leLabel(t, line))
		}
	}
	if wantLes := []string{"0.0001", "0.001", "0.01", "0.1", "+Inf"}; fmt.Sprint(les) != fmt.Sprint(wantLes) {
		t.Errorf("prom le order = %v, want %v", les, wantLes)
	}
}

// TestRouteStatusClasses: the status-capturing writer attributes
// response classes per route, and the shared tracer's span aggregates
// (the index build and per-batch lookups) are exported beside them.
func TestRouteStatusClasses(t *testing.T) {
	s := promServer(t) // 2 OK + 1 bad on /v1/geolocate, 1 OK on /healthz

	prom := get(t, s, "/metrics/prom").Body.String()
	for _, want := range []string{
		`geoserve_route_requests_total{route="POST /v1/geolocate"} 3`,
		`geoserve_route_requests_total{route="GET /healthz"} 1`,
		`geoserve_route_status_total{route="POST /v1/geolocate",class="2xx"} 2`,
		`geoserve_route_status_total{route="POST /v1/geolocate",class="4xx"} 1`,
		`geoserve_route_status_total{route="GET /healthz",class="2xx"} 1`,
		`geoserve_span_count_total{span="lookup-batch"} 1`,
		`geoserve_span_count_total{span="geoloc-compile"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("exposition missing %q\n%s", want, prom)
		}
	}
	// The scrape's own span ends after its snapshot: it shows up in
	// later scrapes, not this one.
	if strings.Contains(prom, `route="GET /metrics/prom"`) {
		t.Error("in-flight /metrics/prom span leaked into its own snapshot")
	}
}

// TestStatusClass covers the bucketing helper's edges.
func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{
		200: "2xx", 204: "2xx", 301: "3xx", 400: "4xx", 404: "4xx",
		500: "5xx", 599: "5xx", 42: "other", 700: "other",
	} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}
