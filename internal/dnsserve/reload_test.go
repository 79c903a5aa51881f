package dnsserve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/dnswire"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/obs"
	"hoiho/internal/psl"
)

func testOptions() geoloc.Options {
	return geoloc.Options{Dict: geodict.MustDefault(), PSL: psl.MustDefault()}
}

// writeTestSnapshot compiles testConventions into a snapshot file and
// returns a Source that serves (and reloads) from it.
func writeTestSnapshot(t *testing.T, dir string) *geoloc.Source {
	t.Helper()
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := geoloc.Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return &geoloc.Source{Snapshot: path}
}

// TestReloadNoSource: a daemon started without a reloadable source
// refuses the reload and keeps serving its boot generation.
func TestReloadNoSource(t *testing.T) {
	s := testServer(t)
	if _, err := s.Live().Reload(nil, testOptions()); !errors.Is(err, geoloc.ErrNoSource) {
		t.Errorf("Reload error = %v, want geoloc.ErrNoSource", err)
	}
	if gen := s.Live().Generation(); gen != 1 {
		t.Errorf("generation = %d after refused reload, want 1", gen)
	}
}

func TestReloadSwapsGeneration(t *testing.T) {
	src := writeTestSnapshot(t, t.TempDir())
	opts := testOptions()
	resolved, err := src.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(resolved.Index, Config{Tracer: obs.New(obs.Options{})})
	gen0 := s.Live().Generation()
	r, err := s.Live().Reload(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Generation <= gen0 || r.Suffixes == 0 {
		t.Errorf("Reload = %+v, want generation > %d", r, gen0)
	}
	if s.Live().Index() == resolved.Index {
		t.Error("server still answers from the boot index after the reload")
	}
}

// TestReloadUnderQuery mirrors geoserve's TestReloadUnderLoad for the
// DNS path: concurrent clients hammer the handler while reloads swap
// the index underneath them. Every query must keep answering NOERROR
// with a full answer — no empty index windows, no errors, no panics.
func TestReloadUnderQuery(t *testing.T) {
	src := writeTestSnapshot(t, t.TempDir())
	opts := testOptions()
	resolved, err := src.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(resolved.Index, Config{Tracer: obs.New(obs.Options{})})
	pkt, err := q(locatedName, dnswire.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}

	const clients = 4
	var queries, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				queries.Add(1)
				resp := s.HandlePacket(pkt, testSrc, false)
				r, err := dnswire.Unpack(resp)
				if err != nil || r.RCode != dnswire.RCodeNoError || len(r.Answers) != 1 {
					failures.Add(1)
				}
			}
		}()
	}

	const reloads = 20
	gen0 := s.Live().Generation()
	for i := 0; i < reloads; i++ {
		if _, err := s.Live().Reload(src, opts); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := s.Live().Generation(); got != gen0+reloads {
		t.Errorf("generation = %d, want %d", got, gen0+reloads)
	}
	if failures.Load() != 0 {
		t.Errorf("%d of %d queries failed during reloads", failures.Load(), queries.Load())
	}
	if queries.Load() == 0 {
		t.Error("no queries ran")
	}
}
