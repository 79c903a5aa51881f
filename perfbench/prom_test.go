package main

import (
	"strings"
	"testing"
)

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(`# HELP x_total X.
# TYPE x_total counter
x_total 42
geoserve_route_seconds_total{route="POST /v1/geolocate"} 0.000336
`))
	if err != nil {
		t.Fatal(err)
	}
	if s["x_total"] != 42 || s[`geoserve_route_seconds_total{route="POST /v1/geolocate"}`] != 0.000336 {
		t.Errorf("parsed %v", s)
	}
}

// The index counters restart at every swap; summing per generation
// must count every lookup once, where a raw diff would go negative.
func TestGenCounterSurvivesReloads(t *testing.T) {
	var c genCounter
	steps := []struct {
		gen uint64
		v   float64
	}{
		{1, 500},  // window starts mid-generation 1: baseline 500
		{1, 900},  // +400
		{2, 16},   // reload: the new index has served its 16 spot-check probes
		{2, 300},  // +284 more in generation 2 (300 in total)
		{3, 100},  // reload again: 100 in generation 3
		{3, 1100}, // +1000
	}
	for _, s := range steps {
		c.observe(s.gen, s.v)
	}
	if got, want := c.total(), 400.0+300+1100; got != want {
		t.Errorf("total = %v, want %v (a raw diff gives %v)", got, want, 1100.0-500)
	}
}

func TestGenCountersReadsGenerationFromScrape(t *testing.T) {
	g := newGenCounters("gen", "hits", "lookups")
	for _, s := range []scrape{
		{"gen": 4, "hits": 10, "lookups": 100},
		{"gen": 4, "hits": 30, "lookups": 200},
		{"gen": 5, "hits": 5, "lookups": 50},
	} {
		if err := g.observe(s); err != nil {
			t.Fatal(err)
		}
	}
	if g.total("hits") != 25 || g.total("lookups") != 150 {
		t.Errorf("hits %v lookups %v, want 25, 150", g.total("hits"), g.total("lookups"))
	}
	if err := g.observe(scrape{"hits": 1}); err == nil {
		t.Error("a scrape without the generation gauge was accepted")
	}
}
