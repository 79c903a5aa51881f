package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeGeoserve answers /v1/geolocate batches from the index built over
// conventions, in geoserve's JSON shape.
func fakeGeoserve(t *testing.T, conventions string) string {
	t.Helper()
	ix := testIndex(t, conventions)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Hostnames []string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		type loc struct {
			City    string  `json:"city"`
			Region  string  `json:"region,omitempty"`
			Country string  `json:"country"`
			Lat     float64 `json:"lat"`
			Long    float64 `json:"long"`
		}
		type result struct {
			Hostname string `json:"hostname"`
			Located  bool   `json:"located"`
			Suffix   string `json:"suffix,omitempty"`
			Hint     string `json:"hint,omitempty"`
			Type     string `json:"type,omitempty"`
			Learned  bool   `json:"learned,omitempty"`
			Location *loc   `json:"location,omitempty"`
		}
		var out struct {
			Results []result `json:"results"`
		}
		for _, h := range req.Hostnames {
			res := result{Hostname: h}
			if g, ok := ix.Lookup(h); ok {
				res = result{Hostname: h, Located: true, Suffix: g.Suffix, Hint: g.Hint, Type: g.Type.String(),
					Learned: g.Learned, Location: &loc{g.Loc.City, g.Loc.Region, g.Loc.Country, g.Loc.Pos.Lat, g.Loc.Pos.Long}}
			}
			out.Results = append(out.Results, res)
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func runHTTPAgainst(t *testing.T, served string) *window {
	t.Helper()
	batches, err := newHTTPBatches(5, append(testNames, "nothing.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	check := &httpChecker{oracle: testIndex(t, testConventions), verified: make(map[int][]byte)}
	gen := newHTTPGen(fakeGeoserve(t, served), batches, check)
	defer gen.close()
	gen.reloadStart = time.Now() // no reload falls inside the window
	return gen.run(newSchedule(time.Now().Add(5*time.Millisecond), 200, 200*time.Millisecond), nil)
}

func TestHTTPCorrectAnswersPass(t *testing.T) {
	w := runHTTPAgainst(t, testConventions)
	if w.failed() != 0 || len(w.answered()) != w.sched.n {
		t.Fatalf("%d lost, %d wrong, %d of %d answered: %v", w.lost, w.wrong, len(w.answered()), w.sched.n, w.errs)
	}
}

func TestHTTPInjectedWrongAnswerFailsRun(t *testing.T) {
	w := runHTTPAgainst(t, wrongConventions)
	if w.wrong == 0 {
		t.Fatal("a server answering Nashua for Ashburn passed the oracle")
	}
	out := newOutcome()
	out.wrong = int64(w.wrong)
	if res, _ := assemble([]string{"http-cold-reload"}, []*outcome{out}, false); res.Correct {
		t.Fatal("a run with wrong answers is reported correct")
	}
}
