package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/psl"
)

// testOptions are the index options the reload tests resolve with.
func testOptions() geoloc.Options {
	return geoloc.Options{Dict: geodict.MustDefault(), PSL: psl.MustDefault()}
}

// writeTestSnapshot compiles testConventions into a snapshot file and
// returns a Source that serves (and reloads) from it.
func writeTestSnapshot(t *testing.T, dir string) *geoloc.Source {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := geoloc.Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return &geoloc.Source{Snapshot: path}
}

// TestErrorEnvelope pins the /v1 error contract: every error response —
// handler-raised or mux-raised — is {"error":{"code","message"}} with
// the documented status and code. A change here is an API break.
func TestErrorEnvelope(t *testing.T) {
	s := newServer(testIndex(t))
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed body", "POST", "/v1/geolocate", `{"hostname":`, 400, "malformed_request"},
		{"unknown field", "POST", "/v1/geolocate", `{"host":"a.he.net"}`, 400, "malformed_request"},
		{"neither field", "POST", "/v1/geolocate", `{}`, 400, "invalid_request"},
		{"both fields", "POST", "/v1/geolocate", `{"hostname":"a","hostnames":["b"]}`, 400, "invalid_request"},
		{"wrong method", "GET", "/v1/geolocate", "", 405, "method_not_allowed"},
		{"unknown endpoint", "POST", "/v1/nope", `{}`, 404, "not_found"},
		{"reload not configured", "POST", "/v1/admin/reload", "", 503, "reload_unavailable"},
		{"body too large", "POST", "/v1/geolocate",
			`{"hostname":"` + strings.Repeat("a", maxBodyBytes) + `"}`, 413, "request_too_large"},
		{"explain body too large", "POST", "/v1/explain",
			`{"hostname":"` + strings.Repeat("a", maxBodyBytes) + `"}`, 413, "request_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.status, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			// DisallowUnknownFields pins the envelope to exactly
			// {"error":{"code","message"}} — extra keys fail the test.
			var envelope struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			dec := json.NewDecoder(bytes.NewReader(w.Body.Bytes()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&envelope); err != nil {
				t.Fatalf("body is not the error envelope: %v\n%s", err, w.Body)
			}
			if envelope.Error.Code != tc.code {
				t.Errorf("code = %q, want %q", envelope.Error.Code, tc.code)
			}
			if envelope.Error.Message == "" {
				t.Error("envelope message is empty")
			}
		})
	}
}

func TestMethodNotAllowedKeepsAllowHeader(t *testing.T) {
	s := newServer(testIndex(t))
	w := get(t, s, "/v1/geolocate")
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", w.Code)
	}
	if allow := w.Header().Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q, want POST listed", allow)
	}
}

func TestReloadSwapsGenerations(t *testing.T) {
	dir := t.TempDir()
	src := writeTestSnapshot(t, dir)
	opts := testOptions()
	resolved, err := src.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(resolved.Index)
	s.enableReload(src, opts)

	for want := uint64(2); want <= 4; want++ {
		w := postJSON(t, s, "/v1/admin/reload", "")
		if w.Code != http.StatusOK {
			t.Fatalf("reload %d: status = %d, body %s", want, w.Code, w.Body)
		}
		var st reloadStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != "ok" || st.Generation != want || st.Suffixes != 1 {
			t.Fatalf("reload status = %+v, want generation %d", st, want)
		}
	}

	// Lookups keep succeeding on the swapped-in index.
	w := postJSON(t, s, "/v1/geolocate", `{"hostname":"xe-1.core9.ash1.he.net"}`)
	var res lookupResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Located || !res.Learned {
		t.Errorf("post-reload lookup = %+v", res)
	}

	// The reload lifecycle lands in /metrics/prom.
	prom := get(t, s, "/metrics/prom").Body.String()
	for _, want := range []string{
		"geoserve_index_generation 4", "geoserve_reloads_total 3", "geoserve_reload_failures_total 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestReloadFailureKeepsServing covers the failure path: a reload whose
// source has gone bad reports 500, counts a failure, and leaves the old
// index serving at its old generation.
func TestReloadFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	src := writeTestSnapshot(t, dir)
	opts := testOptions()
	resolved, err := src.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(resolved.Index)
	s.enableReload(src, opts)

	// Corrupt the snapshot on disk; the running index is unaffected.
	if err := os.WriteFile(src.Snapshot, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := postJSON(t, s, "/v1/admin/reload", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt snapshot: status = %d, body %s", w.Code, w.Body)
	}
	var envelope apiError
	if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.Code != "reload_failed" {
		t.Errorf("code = %q, want reload_failed", envelope.Error.Code)
	}
	if gen := s.live.Generation(); gen != 1 {
		t.Errorf("generation = %d after failed reload, want 1", gen)
	}
	if fails := s.live.ReloadStats().Failures; fails != 1 {
		t.Errorf("failure counter = %d, want 1", fails)
	}
	w = postJSON(t, s, "/v1/geolocate", `{"hostname":"et-0.core1.sjc1.he.net"}`)
	if w.Code != http.StatusOK {
		t.Errorf("lookup after failed reload: status = %d", w.Code)
	}
}

// TestReloadUnderLoad is the zero-downtime acceptance test: concurrent
// clients hammer /v1/geolocate over a real listener while the index is
// reloaded several times; every request must succeed. CI runs this
// under -race (it is not skipped in -short mode for exactly that
// reason).
func TestReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	src := writeTestSnapshot(t, dir)
	opts := testOptions()
	resolved, err := src.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(resolved.Index)
	s.enableReload(src, opts)
	ts := httptest.NewServer(s)
	defer ts.Close()

	const clients = 4
	var requests, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := `{"hostname":"xe-1.core9.ash1.he.net"}`
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/geolocate", "application/json",
					strings.NewReader(body))
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				var res lookupResult
				if json.NewDecoder(resp.Body).Decode(&res) != nil ||
					resp.StatusCode != http.StatusOK || !res.Located {
					failures.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	const swaps = 5
	for i := 0; i < swaps; i++ {
		resp, err := http.Post(ts.URL+"/v1/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()

	if got := s.live.Generation(); got != swaps+1 {
		t.Errorf("generation = %d, want %d", got, swaps+1)
	}
	if requests.Load() == 0 {
		t.Fatal("no lookup requests completed during the reload storm")
	}
	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d concurrent lookups failed across %d swaps",
			n, requests.Load(), swaps)
	}
	t.Logf("%d lookups served across %d swaps, 0 failures", requests.Load(), swaps)
}
