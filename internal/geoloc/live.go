package geoloc

// Zero-downtime serving: a Live holder publishes the current Index
// behind an atomic pointer so lookups never block on a reload. A swap
// is a single pointer store — in-flight requests that already loaded
// the old Index finish against it (immutability makes that safe), and
// the old Index drains naturally: once the last in-flight reference is
// dropped the garbage collector reclaims it. There is no lock on the
// lookup path and no quiesce window.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Live is an atomically swappable reference to the serving Index, and
// the home of the reload lifecycle both daemons run. Its methods are
// safe for concurrent use from any number of goroutines.
type Live struct {
	ptr atomic.Pointer[Index]
	gen atomic.Uint64

	// Reload bookkeeping: one reload at a time, outcome counters, and
	// the build/swap latencies of the last successful reload.
	reloadMu    sync.Mutex
	reloads     atomic.Int64
	failures    atomic.Int64
	lastBuildUS atomic.Int64
	lastSwapUS  atomic.Int64
}

// reloadSpotChecks is how many suffixes a reload validates against the
// outgoing index before the swap (see SpotCheck).
const reloadSpotChecks = 16

// ErrNoSource is Reload's error when the daemon was given no source to
// reload from.
var ErrNoSource = errors.New("no reloadable source configured")

// NewLive publishes ix as generation 1.
func NewLive(ix *Index) *Live {
	l := &Live{}
	l.ptr.Store(ix)
	l.gen.Store(1)
	return l
}

// Index returns the current serving index. Callers should load it once
// per request and use that reference throughout, so a mid-request swap
// cannot split one request across two indexes.
func (l *Live) Index() *Index { return l.ptr.Load() }

// Swap atomically replaces the serving index, returning the index it
// displaced and the new generation number. The old index remains valid
// for readers that already hold it.
func (l *Live) Swap(next *Index) (old *Index, gen uint64) {
	old = l.ptr.Swap(next)
	return old, l.gen.Add(1)
}

// Generation returns the current generation: 1 for the boot index,
// incremented by every Swap.
func (l *Live) Generation() uint64 { return l.gen.Load() }

// Reloaded describes one successful Reload. SwapUS covers validation
// plus the atomic swap — the window in which the replacement exists but
// is not yet serving; lookups proceed normally throughout.
type Reloaded struct {
	Generation uint64
	Suffixes   int
	BuildUS    int64
	SwapUS     int64
}

// Reload builds a replacement index from src with opts, spot-checks it
// against the serving one, and swaps it in, recording a "reload" span on
// opts.Tracer. Concurrent reloads serialize; lookups are never blocked —
// they keep hitting the old index until the single atomic store, and
// the old index drains as requests that loaded it finish. A failed
// build or spot check counts a failure and leaves the serving index in
// place. A nil src fails with ErrNoSource.
func (l *Live) Reload(src *Source, opts Options) (Reloaded, error) {
	if src == nil {
		return Reloaded{}, ErrNoSource
	}
	l.reloadMu.Lock()
	defer l.reloadMu.Unlock()
	sp := opts.Tracer.Start("reload")
	defer sp.End()
	r, err := l.reload(src, opts)
	if err != nil {
		l.failures.Add(1)
		sp.Count("failures", 1)
		return Reloaded{}, err
	}
	l.reloads.Add(1)
	l.lastBuildUS.Store(r.BuildUS)
	l.lastSwapUS.Store(r.SwapUS)
	sp.Count("suffixes", int64(r.Suffixes))
	return r, nil
}

// reload resolves, validates and swaps; the caller holds reloadMu.
func (l *Live) reload(src *Source, opts Options) (Reloaded, error) {
	t0 := time.Now()
	resolved, err := src.Resolve(opts)
	if err != nil {
		return Reloaded{}, err
	}
	buildUS := int64(time.Since(t0) / time.Microsecond)
	t1 := time.Now()
	if err := SpotCheck(l.Index(), resolved.Index, reloadSpotChecks); err != nil {
		return Reloaded{}, err
	}
	_, gen := l.Swap(resolved.Index)
	return Reloaded{
		Generation: gen, Suffixes: resolved.Index.Len(),
		BuildUS: buildUS, SwapUS: int64(time.Since(t1) / time.Microsecond),
	}, nil
}

// ReloadStats is a snapshot of the reload lifecycle.
type ReloadStats struct {
	Generation  uint64
	Reloads     int64
	Failures    int64
	LastBuildUS int64
	LastSwapUS  int64
}

// ReloadStats snapshots the reload counters and the serving generation.
func (l *Live) ReloadStats() ReloadStats {
	return ReloadStats{
		Generation:  l.Generation(),
		Reloads:     l.reloads.Load(),
		Failures:    l.failures.Load(),
		LastBuildUS: l.lastBuildUS.Load(),
		LastSwapUS:  l.lastSwapUS.Load(),
	}
}

// SpotCheck validates a replacement index before it is swapped in: the
// replacement must be non-nil and non-empty, probe lookups over a
// deterministic sample of its suffixes must complete (exercising
// normalization, PSL dispatch, and the compiled matchers), and for
// sampled suffixes the old and new index must agree on dispatch — a
// probe hostname under a shared suffix must route to the same
// registrable domain in both, which catches a PSL or normalization skew
// between build and serve. old may be nil (boot); samples <= 0 checks
// every suffix.
//
// The probes run against the real lookup path, so they count in the new
// index's stats and may seed its cache; both effects are harmless. The
// probes' lookup outcomes are deliberately not asserted — whether a
// probe matches depends on the learned regexes, which a reload is
// allowed to change.
func SpotCheck(old, next *Index, samples int) error {
	if next == nil {
		return fmt.Errorf("geoloc: spot-check: replacement index is nil")
	}
	if next.Len() == 0 {
		return fmt.Errorf("geoloc: spot-check: replacement index is empty")
	}
	suffixes := next.Suffixes()
	if samples > 0 && len(suffixes) > samples {
		suffixes = suffixes[:samples]
	}
	for _, suffix := range suffixes {
		probe := "spotcheck." + suffix
		next.Lookup(probe) // must complete: dispatch + matcher walk, no panic
		if got := next.Suffix(probe); got != suffix {
			return fmt.Errorf("geoloc: spot-check: probe %q dispatches to %q, want %q", probe, got, suffix)
		}
		if old != nil && old.Convention(suffix) != nil {
			if oldGot := old.Suffix(probe); oldGot != suffix {
				return fmt.Errorf("geoloc: spot-check: dispatch skew on %s: old index routes %q to %q",
					suffix, probe, oldGot)
			}
		}
	}
	return nil
}
