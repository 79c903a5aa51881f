package rex

import "sync/atomic"

// Package-wide matcher counters. Regex builds its matcher behind
// sync.Once, so each counter increments at most once per Regex value —
// the counts measure distinct regexes prepared, not Match calls. The
// observability layer reads them as deltas around a pipeline run;
// being process-global, deltas overlap when runs execute concurrently.
var (
	matchersBuilt    atomic.Int64
	matchersDeclined atomic.Int64
)

// MatcherCounts returns how many rexmatch programs have been built
// process-wide, and how many regexes rexmatch declined (they match
// nothing, and Prepare reports them as invalid).
func MatcherCounts() (specialized, declined int64) {
	return matchersBuilt.Load(), matchersDeclined.Load()
}
