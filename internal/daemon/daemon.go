// Package daemon is the serving kit geoserve and geodns share: the
// flags every daemon takes, booting the index, opening and closing the
// query log, the SIGHUP reload loop, graceful HTTP serving, /healthz and
// the pprof routes, and the index, reload and query-log Prometheus
// collectors. Each daemon keeps only what is its own: its protocol
// front end and the metrics that describe it.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hoiho/internal/buildinfo"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/promexp"
	"hoiho/internal/qlog"
)

// Daemon holds the shared flags of one daemon and its name, which
// prefixes its log lines and fatal errors.
type Daemon struct {
	name string
	fs   *flag.FlagSet

	// Source is the -snapshot/-nc/-corpus input, resolved at boot and
	// again on every reload.
	Source       geoloc.Source
	cacheSize    int
	usableOnly   bool
	qlogPath     string
	qlogSample   int
	qlogMaxBytes int64
	version      bool
}

// New registers the shared flags of the daemon called name on fs.
func New(name string, fs *flag.FlagSet) *Daemon {
	d := &Daemon{name: name, fs: fs}
	d.Source.RegisterFlags(fs)
	fs.IntVar(&d.cacheSize, "cache", geoloc.DefaultCacheSize,
		"LRU result-cache entries (negative disables)")
	fs.BoolVar(&d.usableOnly, "usable-only", false, "serve only good/promising conventions")
	fs.StringVar(&d.qlogPath, "qlog", "", "write a sampled JSONL query log to this file (empty disables)")
	fs.IntVar(&d.qlogSample, "qlog-sample", 1, "keep 1 in N query-log records")
	fs.Int64Var(&d.qlogMaxBytes, "qlog-max-bytes", 64<<20,
		"rotate the query log to <path>.1 before exceeding this size (0 disables rotation)")
	fs.BoolVar(&d.version, "version", false, "print build info and exit")
	return d
}

// Parse parses args, then does what every daemon does before booting:
// -version prints build info and exits 0, and a missing or ambiguous
// source prints usage and exits 2.
func (d *Daemon) Parse(args []string) {
	if err := d.fs.Parse(args); err != nil {
		os.Exit(2) // the flag set already printed the error and usage
	}
	if d.version {
		buildinfo.Print(os.Stdout, d.name)
		os.Exit(0)
	}
	if _, err := d.Source.Kind(); err != nil {
		fmt.Fprintln(os.Stderr, d.name+":", err)
		d.fs.Usage()
		os.Exit(2)
	}
}

// Boot resolves the source into the boot index and logs what it serves.
// The returned options, traced by tracer, are the ones every reload
// compiles with.
func (d *Daemon) Boot(tracer *obs.Tracer) (*geoloc.Index, geoloc.Options, error) {
	opts := geoloc.Options{UsableOnly: d.usableOnly, CacheSize: d.cacheSize, Tracer: tracer}
	resolved, err := d.Source.Resolve(opts)
	if err != nil {
		return nil, opts, err
	}
	log.Printf("%s: serving %d conventions from %s", d.name, resolved.Index.Len(), d.Source.Describe())
	return resolved.Index, opts, nil
}

// OpenQlog opens the -qlog query log, or returns nil (logging off)
// without -qlog. Close it with CloseQlog.
func (d *Daemon) OpenQlog() (*qlog.Logger, error) {
	if d.qlogPath == "" {
		return nil, nil
	}
	ql, err := qlog.New(qlog.Options{Path: d.qlogPath, Sample: d.qlogSample, MaxBytes: d.qlogMaxBytes})
	if err != nil {
		return nil, err
	}
	log.Printf("%s: query log at %s (1 in %d)", d.name, d.qlogPath, max(1, d.qlogSample))
	return ql, nil
}

// CloseQlog closes a query log from OpenQlog (nil is a no-op) and logs
// the first write, rotation or close error it latched.
func (d *Daemon) CloseQlog(ql *qlog.Logger) {
	if err := ql.Close(); err != nil {
		log.Printf("%s: query log: %v", d.name, err)
	}
}

// ReloadOnHUP reloads live from the source with opts on every SIGHUP
// until ctx is done, logging each outcome. The returned channel closes
// once the loop has exited, so a reload in flight at shutdown can
// finish before main returns.
func (d *Daemon) ReloadOnHUP(ctx context.Context, live *geoloc.Live, opts geoloc.Options) <-chan struct{} {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if r, err := live.Reload(&d.Source, opts); err != nil {
					log.Printf("%s: SIGHUP reload failed, still serving generation %d: %v",
						d.name, live.Generation(), err)
				} else {
					log.Printf("%s: SIGHUP reload: generation %d, %d suffixes, build %dµs, swap %dµs",
						d.name, r.Generation, r.Suffixes, r.BuildUS, r.SwapUS)
				}
			}
		}
	}()
	return done
}

// Fatal prints err under the daemon's name and exits 1.
func (d *Daemon) Fatal(err error) {
	fmt.Fprintln(os.Stderr, d.name+":", err)
	os.Exit(1)
}

// drainTimeout bounds how long Serve waits for in-flight requests.
const drainTimeout = 10 * time.Second

// Serve runs an HTTP server for h on ln until ctx is cancelled, then
// shuts down gracefully: the listener closes, in-flight requests get up
// to drainTimeout to complete, and nil is returned on a clean drain.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Healthz serves the liveness document: suffix count and generation of
// the serving index, uptime since start, and build identity.
func Healthz(live *geoloc.Live, start time.Time) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		info := buildinfo.Read()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		//lint:ignore droppederr a 200 header is already on the wire; an Encode failure means the client hung up
		enc.Encode(map[string]any{
			"status":     "ok",
			"suffixes":   live.Index().Len(),
			"generation": live.Generation(),
			"uptime_s":   int64(time.Since(start).Seconds()),
			"commit":     info.Commit,
			"go_version": info.GoVersion,
		})
	}
}

// RegisterPprof registers the net/http/pprof routes on mux; the pprof
// package's side-effect registration covers only http.DefaultServeMux.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// IndexMetrics renders the serving index's lookup counters under
// prefix, including the per-suffix and per-class match attributions as
// labeled series. The counters belong to the current generation: a
// reload swaps in a fresh index whose counters start at zero (the
// generation is exported by ReloadMetrics so scrapes can attribute the
// reset).
func IndexMetrics(prefix string, live *geoloc.Live) promexp.Collector {
	return func(pw *promexp.Writer) {
		st := live.Index().Stats()
		for _, c := range []struct {
			name, help string
			v          uint64
		}{
			{"_index_lookups_total", "Hostname lookups against the index.", st.Lookups},
			{"_index_cache_hits_total", "Lookups answered from the LRU cache.", st.CacheHits},
			{"_index_cache_misses_total", "Lookups that missed the LRU cache.", st.CacheMisses},
			{"_index_matched_total", "Lookups that matched a convention.", st.Matched},
			{"_index_unmatched_total", "Lookups no convention matched.", st.Unmatched},
		} {
			pw.Counter(prefix+c.name, c.help, float64(c.v))
		}
		suffixes := prefix + "_index_suffix_matches_total"
		pw.Family(suffixes, "Matches per convention suffix.", "counter")
		for _, k := range promexp.SortedKeys(st.BySuffix) {
			pw.Sample(suffixes, promexp.Labels("suffix", k), float64(st.BySuffix[k]))
		}
		classes := prefix + "_index_class_matches_total"
		pw.Family(classes, "Matches per convention classification.", "counter")
		for _, k := range promexp.SortedKeys(st.ByClass) {
			pw.Sample(classes, promexp.Labels("class", k), float64(st.ByClass[k]))
		}
	}
}

// ReloadMetrics renders the hot-reload lifecycle under prefix: the
// serving generation, reload outcome counters, and the latest
// build/swap latencies.
func ReloadMetrics(prefix string, live *geoloc.Live) promexp.Collector {
	return func(pw *promexp.Writer) {
		rs := live.ReloadStats()
		pw.Gauge(prefix+"_index_generation", "Serving index generation (1 = boot index, +1 per swap).",
			float64(rs.Generation))
		pw.Counter(prefix+"_reloads_total", "Successful index reloads.",
			float64(rs.Reloads))
		pw.Counter(prefix+"_reload_failures_total", "Reload attempts rejected before the swap.",
			float64(rs.Failures))
		pw.Gauge(prefix+"_reload_build_seconds", "Replacement-index build time of the last successful reload.",
			float64(rs.LastBuildUS)/1e6)
		pw.Gauge(prefix+"_reload_swap_seconds", "Validate+swap time of the last successful reload.",
			float64(rs.LastSwapUS)/1e6)
	}
}

// QlogMetrics renders the query-log counters under prefix. Nothing is
// emitted when the log is off (ql nil): absent families read
// unambiguously as "off".
func QlogMetrics(prefix string, ql *qlog.Logger) promexp.Collector {
	return func(pw *promexp.Writer) {
		if !ql.Enabled() {
			return
		}
		st := ql.Stats()
		pw.Counter(prefix+"_qlog_records_total", "Query-log records written.", float64(st.Logged))
		pw.Counter(prefix+"_qlog_sampled_out_total", "Queries skipped by the sampling rate.", float64(st.Skipped))
		pw.Counter(prefix+"_qlog_rotations_total", "Query-log file rotations.", float64(st.Rotations))
	}
}
