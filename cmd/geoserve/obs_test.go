package main

import (
	"net/http"
	"testing"
)

// TestPprofEndpoints checks the profiling routes are wired: the index
// page and a heap profile respond 200 on the server's own mux (nothing
// relies on http.DefaultServeMux).
func TestPprofEndpoints(t *testing.T) {
	s := newServer(testIndex(t))
	if w := get(t, s, "/debug/pprof/"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", w.Code)
	}
	w := get(t, s, "/debug/pprof/heap?debug=1")
	if w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/heap = %d, want 200", w.Code)
	}
	if w := get(t, s, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d, want 200", w.Code)
	}
}
