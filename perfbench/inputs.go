package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hoiho/internal/core"
	"hoiho/internal/eval"
	"hoiho/internal/geoloc"
	"hoiho/internal/itdk"
	"hoiho/internal/rtt"
	"hoiho/internal/synth"
)

// scale multiplies the operator counts of the ipv4-aug2020 preset. At
// the preset seed ×10 gives ~43.6k routers, ~27k hostnames and ~800
// learned conventions: ITDK-shaped and large enough that learning
// dominates process start-up.
const scale = 10

// worldParams returns the learn-10x generator parameters for a
// benchmark seed; seed 0 is the preset's own seed.
func worldParams(seed int64) (synth.Params, error) {
	p, err := synth.ITDKPreset("ipv4-aug2020")
	if err != nil {
		return p, err
	}
	p.Operators *= scale
	p.Tiny *= scale
	p.Noise *= scale
	p.Seed += seed
	return p, nil
}

// genWorld generates the seed's world with spoofing vantage points
// filtered, as geosynth does by default.
func genWorld(seed int64) (*synth.World, error) {
	p, err := worldParams(seed)
	if err != nil {
		return nil, err
	}
	w, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	w.CleanSpoofers()
	return w, nil
}

// writeCorpus writes the three files hoiho -corpus reads.
func writeCorpus(w *synth.World, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(*bufio.Writer) error
	}{
		{"corpus.nodes", func(b *bufio.Writer) error { return itdk.WriteNodes(b, w.Corpus) }},
		{"corpus.names", func(b *bufio.Writer) error { return itdk.WriteNames(b, w.Corpus) }},
		{"rtt.matrix", func(b *bufio.Writer) error { return rtt.WriteMatrix(b, w.Matrix) }},
	}
	for _, f := range files {
		if err := writeFileAtomic(filepath.Join(dir, f.name), f.write); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes path through a temporary file and a rename, so
// an interrupted run never leaves a truncated input behind.
func writeFileAtomic(path string, write func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	b := bufio.NewWriterSize(f, 1<<20)
	if err := write(b); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := b.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// hostnames returns every distinct hostname in the corpus, sorted.
func hostnames(c *itdk.Corpus) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range c.Routers {
		for _, h := range r.Hostnames() {
			if !seen[h] {
				seen[h] = true
				out = append(out, h)
			}
		}
	}
	sort.Strings(out)
	return out
}

// artifacts are the learned outputs the serving workloads start from.
type artifacts struct {
	nc   string // conventions file written by hoiho -write-nc
	snap string // compiled-index snapshot written by geosnap
}

// learnedArtifacts returns the seed's conventions and snapshot, learned
// by the shipped hoiho and compiled by the shipped geosnap. They are
// cached under the work directory, keyed on the seed and on a hash of
// the code that makes them, so a checkout rebuilt at another commit
// learns afresh instead of serving what the old code wrote.
func learnedArtifacts(e *env, w *synth.World) (artifacts, error) {
	key, err := codeKey(e.bin("hoiho"), e.bin("geosnap"))
	if err != nil {
		return artifacts{}, err
	}
	dir := filepath.Join(e.work, fmt.Sprintf("seed-%d-%s", e.seed, key))
	a := artifacts{nc: filepath.Join(dir, "conventions.txt"), snap: filepath.Join(dir, "index.snap")}
	if _, err := os.Stat(a.snap); err == nil {
		return a, nil
	}
	corpus := filepath.Join(dir, "corpus")
	if err := writeCorpus(w, corpus); err != nil {
		return a, err
	}
	defer os.RemoveAll(corpus)
	if _, err := runTool(e.bin("hoiho"), "-corpus", corpus, "-write-nc", a.nc+".tmp"); err != nil {
		return a, err
	}
	if err := os.Rename(a.nc+".tmp", a.nc); err != nil {
		return a, err
	}
	if _, err := runTool(e.bin("geosnap"), "-nc", a.nc, "-o", a.snap+".tmp"); err != nil {
		return a, err
	}
	return a, os.Rename(a.snap+".tmp", a.snap)
}

// codeKey returns a short hash of the benchmark's own executable, which
// generates the corpus, and of the given binaries.
func codeKey(bins ...string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range append([]string{self}, bins...) {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// loadOracle loads a snapshot in-process with the result cache off:
// the reference every served answer is checked against.
func loadOracle(snap string) (*geoloc.Index, error) {
	return loadIndexFile(snap, geoloc.Options{CacheSize: -1})
}

// loadIndexFile loads a snapshot file into an index.
func loadIndexFile(snap string, opts geoloc.Options) (*geoloc.Index, error) {
	f, err := os.Open(snap)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return geoloc.Load(f, opts)
}

// accuracy scores conventions against the world's ground truth with the
// paper's figure-9 protocol: TP/(TP+FP+FN) and TP/(TP+FP).
func accuracy(w *synth.World, res *core.Result) (tpFrac, ppv float64) {
	m := eval.ComputeFig9Hoiho(w, res)
	if m.Total() > 0 {
		tpFrac = float64(m.TP) / float64(m.Total())
	}
	if m.TP+m.FP > 0 {
		ppv = float64(m.TP) / float64(m.TP+m.FP)
	}
	return tpFrac, ppv
}

// snapshotAccuracy scores the conventions inside a snapshot.
func snapshotAccuracy(w *synth.World, snap string) (tpFrac, ppv float64, err error) {
	f, err := os.Open(snap)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	res, err := geoloc.ReadSnapshot(f, nil)
	if err != nil {
		return 0, 0, err
	}
	tpFrac, ppv = accuracy(w, res)
	return tpFrac, ppv, nil
}
