// Package promexp is the shared Prometheus text-exposition layer
// behind every daemon's /metrics/prom endpoint. It grew out of the
// hand-rolled renderer in cmd/geoserve and exists so geoserve and
// geodns (and any future front end) emit the same dialect with the
// same invariants, checked by one conformance test (Conform).
//
// The package renders exposition format version 0.0.4: `# HELP` and
// `# TYPE` headers announcing each family before its samples, escaped
// label values, and cumulative `le`-bucketed histogram series that
// ascend to +Inf with _sum and _count rows. It deliberately implements
// nothing else — no client_golang-style instrument registry with
// lifecycle and gather locking, just a Writer that makes the format
// hard to emit wrong and a Registry that turns collector functions
// into an http.Handler.
//
// Invariants the layer guarantees (and Conform enforces):
//
//   - Every sample belongs to a family whose HELP and TYPE lines were
//     written first, HELP before TYPE, each exactly once.
//   - Histogram bucket series have strictly ascending le bounds, end
//     at +Inf, carry monotonically non-decreasing cumulative counts,
//     and agree with the family's _count row.
//   - Label values are escaped (backslash, double quote, newline) so
//     arbitrary suffix strings cannot corrupt the exposition.
package promexp

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the exposition content type all handlers serve.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label [2]string

// Labels builds a label list from alternating name, value arguments —
// Labels("route", "/v1/geolocate", "class", "2xx"). It panics on an
// odd argument count: label shapes are static at every call site, so
// an imbalance is a programming error, not input.
func Labels(nv ...string) []Label {
	if len(nv)%2 != 0 {
		panic("promexp: Labels takes name/value pairs")
	}
	ls := make([]Label, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		ls = append(ls, Label{nv[i], nv[i+1]})
	}
	return ls
}

// Writer emits exposition-format lines. Build one with NewWriter; the
// caller must Flush when done (an http handler should funnel the Flush
// error into its own accounting — the scraper may hang up mid-body).
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w for exposition output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Family writes the HELP/TYPE header announcing a metric family. typ
// must be one of "counter", "gauge", or "histogram".
func (p *Writer) Family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line with optional labels.
func (p *Writer) Sample(name string, lbls []Label, value float64) {
	p.w.WriteString(name)
	if len(lbls) > 0 {
		p.w.WriteByte('{')
		for i, l := range lbls {
			if i > 0 {
				p.w.WriteByte(',')
			}
			fmt.Fprintf(p.w, `%s="%s"`, l[0], EscapeLabel(l[1]))
		}
		p.w.WriteByte('}')
	}
	fmt.Fprintf(p.w, " %s\n", strconv.FormatFloat(value, 'g', -1, 64))
}

// Counter writes a complete single-sample counter family: header plus
// one unlabeled sample. The common shape of daemon totals.
func (p *Writer) Counter(name, help string, value float64) {
	p.Family(name, help, "counter")
	p.Sample(name, nil, value)
}

// Gauge writes a complete single-sample gauge family.
func (p *Writer) Gauge(name, help string, value float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, nil, value)
}

// Histogram writes a complete histogram family from per-band (non-
// cumulative) observation counts. bounds are the ascending le upper
// bounds; counts must have len(bounds)+1 entries, the last being the
// overflow band that only feeds the +Inf bucket. sum is the total of
// all observed values in the metric's unit. The cumulative running
// totals, the +Inf bucket, and the _sum/_count rows are derived here
// so a caller cannot emit a non-monotone series.
func (p *Writer) Histogram(name, help string, bounds []float64, counts []int64, sum float64) {
	if len(counts) != len(bounds)+1 {
		panic(fmt.Sprintf("promexp: histogram %s: %d counts for %d bounds (want bounds+1)",
			name, len(counts), len(bounds)))
	}
	p.Family(name, help, "histogram")
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		le := strconv.FormatFloat(b, 'g', -1, 64)
		p.Sample(name+"_bucket", Labels("le", le), float64(cum))
	}
	cum += counts[len(bounds)]
	p.Sample(name+"_bucket", Labels("le", "+Inf"), float64(cum))
	p.Sample(name+"_sum", nil, sum)
	p.Sample(name+"_count", nil, float64(cum))
}

// Flush drains the buffered output, surfacing the first write error.
func (p *Writer) Flush() error {
	return p.w.Flush()
}

// Collector renders one section of an exposition document.
type Collector func(*Writer)

// Registry is an ordered list of collectors rendered per scrape. The
// order is registration order, so a daemon's exposition is stable
// across scrapes (sections never shuffle) without any sorting here.
// Registration happens at daemon construction; rendering may happen
// from any goroutine, so collectors must read only concurrency-safe
// state (atomics, mutex-guarded snapshots).
type Registry struct {
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Register appends collectors to the scrape order.
func (r *Registry) Register(cs ...Collector) {
	r.collectors = append(r.collectors, cs...)
}

// Render writes every collector into w and flushes, returning the
// first write error.
func (r *Registry) Render(w io.Writer) error {
	pw := NewWriter(w)
	for _, c := range r.collectors {
		c(pw)
	}
	return pw.Flush()
}

// ServeHTTP renders the registry as an exposition response.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	// A write error here means the scraper hung up mid-response; there
	// is no one left to report it to.
	//lint:ignore droppederr client gone mid-scrape; a failed exposition write has no one left to tell
	r.Render(w)
}

// EscapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func EscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// escapeHelp escapes a HELP text: backslash and newline (quotes are
// legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// SortedKeys returns m's keys sorted — the deterministic iteration
// order every labeled-series loop needs.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
