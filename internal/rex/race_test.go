package rex

import (
	"sync"
	"testing"
)

// TestRegexConcurrentCaches hammers one shared *Regex from many
// goroutines. The render and matcher caches populate lazily, so
// this locks in their sync.Once guards — a published NamingConvention's
// regexes are shared by concurrent Geolocate callers, and the parallel
// pipeline evaluates shared candidates the same way. Run with -race.
func TestRegexConcurrentCaches(t *testing.T) {
	regexes := []*Regex{alterIATA(), alterCity()}
	hosts := []string{
		"0.xe-10-0-0.gw1.sfo16.alter.net",
		"pos-1.munich3.de.alter.net",
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for ri, r := range regexes {
					if r.String() == "" {
						t.Error("empty rendering")
					}
					if err := r.Prepare(); err != nil {
						t.Error(err)
					}
					if _, ok := r.Match(hosts[ri]); !ok {
						t.Errorf("regex %d failed to match %s", ri, hosts[ri])
					}
					if _, ok := r.ComponentMatches(hosts[ri]); !ok {
						t.Errorf("regex %d probe failed on %s", ri, hosts[ri])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRegexConcurrentCompileError checks that a matcher build failure
// is also cached race-free and returned consistently to every caller.
func TestRegexConcurrentCompileError(t *testing.T) {
	// A fixed-count component beyond the 1000-repeat limit renders
	// `[a-z]{100000}`, which rexmatch (like regexp.Compile) rejects.
	r := New(0, Component{Kind: KindAlphaFixed, N: 100000, Capture: true, Role: RoleHint})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := r.Prepare(); err == nil {
					t.Error("invalid pattern prepared")
				}
				if _, ok := r.Match("x"); ok {
					t.Error("invalid pattern matched")
				}
			}
		}()
	}
	wg.Wait()
}
