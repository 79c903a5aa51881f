package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one Prometheus text exposition, series → value. A series
// key is the sample line's name with its label set, exactly as
// rendered ("geoserve_route_seconds_total{route=\"POST /v1/geolocate\"}").
type scrape map[string]float64

// parseProm reads the text exposition format, skipping comments.
func parseProm(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fetchProm scrapes url.
func fetchProm(c *http.Client, url string) (scrape, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// genCounter totals a counter that restarts from zero whenever the
// serving index is swapped. geoloc.Index keeps its lookup and cache
// counters on the index itself, so each reload resets them; diffing two
// raw scrapes across a swap would go negative or undercount. Instead
// the counter is tracked per index generation: the total is the sum
// over generations of the last value seen in that generation minus the
// first, where a generation that began inside the measured window
// starts from zero. Lookups the new generation served between its swap
// and the first scrape are therefore counted, including the reload's
// own spot-check probes (16 per reload); lookups the old generation
// served after its last scrape are lost, which is why the load
// generator scrapes immediately before every reload it sends.
type genCounter struct {
	first map[uint64]float64 // baseline per generation
	last  map[uint64]float64
	start uint64 // the generation the window began in
	began bool
}

// observe records the counter's value as seen in generation gen.
func (c *genCounter) observe(gen uint64, v float64) {
	if !c.began {
		c.first, c.last = make(map[uint64]float64), make(map[uint64]float64)
		c.start, c.began = gen, true
	}
	if _, ok := c.first[gen]; !ok {
		if gen == c.start {
			c.first[gen] = v
		} else {
			c.first[gen] = 0
		}
	}
	c.last[gen] = v
}

// total returns the counter's increase over the observed window.
func (c *genCounter) total() float64 {
	sum := 0.0
	for g, v := range c.last {
		sum += v - c.first[g]
	}
	return sum
}

// genCounters tracks several reset-on-swap counters of one daemon,
// keyed by series name, with the generation read from a gauge series
// in the same scrape.
type genCounters struct {
	genSeries string
	counters  map[string]*genCounter
}

func newGenCounters(genSeries string, series ...string) *genCounters {
	g := &genCounters{genSeries: genSeries, counters: make(map[string]*genCounter)}
	for _, s := range series {
		g.counters[s] = &genCounter{}
	}
	return g
}

// observe folds one scrape in.
func (g *genCounters) observe(s scrape) error {
	gen, ok := s[g.genSeries]
	if !ok {
		return fmt.Errorf("scrape has no %s", g.genSeries)
	}
	for name, c := range g.counters {
		v, ok := s[name]
		if !ok {
			return fmt.Errorf("scrape has no %s", name)
		}
		c.observe(uint64(gen), v)
	}
	return nil
}

func (g *genCounters) total(series string) float64 { return g.counters[series].total() }
