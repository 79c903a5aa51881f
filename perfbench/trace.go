package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: each goroutine that records owns its own recorder,
// and merge joins them afterwards.
type recorder struct {
	t0    time.Time
	spans []span
	idOff int // ids are idOff+index+1, unique across merged recorders
}

func newRecorder(t0 time.Time, idOff int) *recorder {
	return &recorder{t0: t0, idOff: idOff, spans: make([]span, 0, 1024)}
}

// start opens a span and returns its id.
func (r *recorder) start(name string, parent int, req int64) int {
	id := r.idOff + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

// end closes the span with the given id.
func (r *recorder) end(id int) {
	r.spans[id-r.idOff-1].End = int64(time.Since(r.t0))
}

// record adds an already-timed span (for calls timed by the caller).
func (r *recorder) record(name string, parent int, req int64, start, end time.Time) int {
	id := r.idOff + len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	return id
}

// byName groups span durations by name.
func byName(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of its interval its children cover. Children of one
// parent are recorded sequentially here, so their covered interval is
// their union, computed by merging sorted intervals.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range cs {
			st, en := max(c.Start, s.Start), min(c.End, s.End)
			if en <= st {
				continue
			}
			if open && st <= curE {
				curE = max(curE, en)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = st, en, true
		}
		if open {
			covered += curE - curS
		}
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// meanUS returns the mean of durations in microseconds.
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Microsecond)
}

// sumSeconds returns the total of durations in seconds.
func sumSeconds(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds()
}

// writeTrace writes the spans as JSONL, followed by one summary record
// per span name carrying its count, total and self time, into the work
// directory's traces/ folder. It returns the file's path.
func writeTrace(e *env, workload string, spans []span) (string, error) {
	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
	self := selfTimes(spans)
	groups := byName(spans)
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	err := writeFileAtomic(path, func(b *bufio.Writer) error {
		enc := json.NewEncoder(b)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		for _, n := range names {
			sum := struct {
				Summary string  `json:"summary"`
				Count   int     `json:"count"`
				TotalS  float64 `json:"total_s"`
				SelfS   float64 `json:"self_s"`
			}{n, len(groups[n]), sumSeconds(groups[n]), self[n].Seconds()}
			if err := enc.Encode(sum); err != nil {
				return err
			}
		}
		return nil
	})
	return path, err
}
