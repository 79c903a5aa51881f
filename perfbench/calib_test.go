package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

func TestProbeFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := &speedProbe{samples: []probeSample{
		{t0.Add(-time.Second), 9 * probeNominal}, // before the interval
		{t0, 2 * probeNominal},
		{t0.Add(time.Second), 4 * probeNominal},
		{t0.Add(3 * time.Second), 9 * probeNominal}, // after it
	}}
	// A host three times as slow as the nominal one, on average over
	// the interval, scales CPU time by a third.
	f, n, err := p.factor(t0, t0.Add(2*time.Second))
	if err != nil || n != 2 || math.Abs(f-1.0/3) > 1e-12 {
		t.Errorf("factor = %v from %d probes (err %v), want 1/3 from 2", f, n, err)
	}
	if _, _, err := p.factor(t0.Add(4*time.Second), t0.Add(5*time.Second)); err == nil {
		t.Error("an interval without probes gave a factor")
	}
}

func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe(5 * time.Millisecond)
	t0 := time.Now()
	time.Sleep(200 * time.Millisecond)
	t1 := time.Now()
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	f, n, err := p.factor(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 || f <= 0 || f > 10 {
		t.Errorf("factor %v from %d probes in 200ms", f, n)
	}
	if p.cpu() <= 0 {
		t.Errorf("probe CPU %v", p.cpu())
	}
	var m0, m1 runtime.MemStats
	buf := make([]uint32, len(probeHosts))
	probeUnit(buf)
	runtime.ReadMemStats(&m0)
	probeUnit(buf)
	runtime.ReadMemStats(&m1)
	if a := m1.Mallocs - m0.Mallocs; a != 0 {
		t.Errorf("a warm probe unit allocated %d times", a)
	}
}

func TestCodeKeyFollowsContent(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	write := func(p, s string) {
		if err := os.WriteFile(p, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(a, "hoiho v1")
	write(b, "geosnap v1")
	k1, err := codeKey(a, b)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := codeKey(a, b)
	write(a, "hoiho v2")
	k3, _ := codeKey(a, b)
	if k1 != k2 || k1 == k3 {
		t.Errorf("keys %s, %s, %s: want the first two equal and the third different", k1, k2, k3)
	}
}

func TestProcCPU(t *testing.T) {
	c0, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
	}
	c1, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := c1 - c0; d < 10*time.Millisecond {
		t.Errorf("50ms of spinning added %v of CPU", d)
	}
}
