package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The CPU time a fixed piece of work takes on a shared virtual machine
// changes with the host. On the 2-vCPU reference box every CPU figure
// of every workload (hoiho learning, synth, both daemons) rose together
// by 20–140% for minutes at a time, with no stolen time to show for it;
// and within a minute, back-to-back runs of one fixed 20ms piece of
// work took anywhere from 1× to 2.3× its fastest time. So while a
// workload runs, a speed probe of the benchmark's own runs a small
// fixed unit of work every probeEvery on a thread of its own, and the
// CPU-time metrics are scaled by probeNominal over the mean unit time
// of the probes taken while they were measured: a program change moves
// the metric, a host change moves the probe as well. The probe runs
// beside the measurement, not in its pauses, because the host's speed
// changes faster than any pause schedule follows.

// probeNominal is the probe unit's typical CPU time, in seconds, on the
// reference box. It only sets the scale: comparisons between two
// commits measured on one machine do not depend on it.
const probeNominal = 0.0025

// probeEvery is the pause between probe units. A unit takes 2–3.5ms,
// so the probe uses under a tenth of one CPU.
const probeEvery = 40 * time.Millisecond

// probeHosts is the probe's fixed input: router-like hostnames drawn
// from a constant seed, with a lookup table over them.
var probeHosts = func() []string {
	rng := rand.New(rand.NewSource(1))
	metros := []string{"lax", "nyc", "fra", "ams", "syd", "nrt", "gru", "jnb"}
	roles := []string{"core", "edge", "bb"}
	out := make([]string, 4000)
	for i := range out {
		out[i] = fmt.Sprintf("ae-%d.r%02d.%s%02d.%s.example.net", rng.Intn(16), rng.Intn(40),
			metros[rng.Intn(len(metros))], rng.Intn(20), roles[rng.Intn(len(roles))])
	}
	return out
}()

var probeIndex = func() map[string]int {
	m := make(map[string]int, len(probeHosts))
	for i, h := range probeHosts {
		m[h] = i
	}
	return m
}()

var probeRE = regexp.MustCompile(`^ae-(\d+)\.r(\d+)\.([a-z]{3})(\d+)\.(core|edge)\.`)

// probeUnit is Go work shaped like the system's own: regular
// expression matching, string hashing, map lookups and a sort, into
// buf. It allocates nothing once warm, so the garbage collector's
// threads never do part of it, and it stays within the CPU caches, so
// it follows the speed of the cores rather than contention for memory.
func probeUnit(buf []uint32) int {
	n := 0
	for i, h := range probeHosts {
		if probeRE.MatchString(h) {
			n++
		}
		hash := uint32(2166136261)
		for j := 0; j < len(h); j++ {
			hash = (hash ^ uint32(h[j])) * 16777619
		}
		buf[i] = hash
		n += probeIndex[h]
	}
	slices.Sort(buf)
	return n
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling thread has used, to the
// nanosecond. getrusage(RUSAGE_THREAD) is no substitute: it read 0 for
// some 1ms units of work and twice their length for others.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// probeSample is one probe unit: when it ended and the CPU seconds it
// took.
type probeSample struct {
	at time.Time
	s  float64
}

// speedProbe runs probe units in the background until closed.
type speedProbe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []probeSample
	own     time.Duration // CPU the probe's thread has used
	err     error
}

// startSpeedProbe starts a probe that runs one unit every pause.
func startSpeedProbe(pause time.Duration) *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.loop(pause)
	return p
}

func (p *speedProbe) loop(pause time.Duration) {
	defer close(p.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]uint32, len(probeHosts))
	probeUnit(buf) // warm the regexp's matchers
	start, err := threadCPU()
	for err == nil {
		var c0, c1 time.Duration
		if c0, err = threadCPU(); err != nil {
			break
		}
		probeUnit(buf)
		if c1, err = threadCPU(); err != nil {
			break
		}
		p.mu.Lock()
		p.samples = append(p.samples, probeSample{at: time.Now(), s: (c1 - c0).Seconds()})
		p.own = c1 - start
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-time.After(pause):
		}
	}
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

// close stops the probe, waits for its goroutine and returns the first
// error it met.
func (p *speedProbe) close() error {
	close(p.stop)
	<-p.done
	return p.err
}

// cpu returns the CPU the probe has used so far, to be taken out of
// the benchmark process's own CPU time where that is measured.
func (p *speedProbe) cpu() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.own
}

// factor returns probeNominal over the mean unit time of the probes
// that ended in [t0, t1], and how many there were: the factor that
// scales CPU time measured over that interval to the reference box's
// typical speed. It returns an error when no probe ended in the interval.
func (p *speedProbe) factor(t0, t1 time.Time) (float64, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var xs []float64
	for _, s := range p.samples {
		if !s.at.Before(t0) && !s.at.After(t1) {
			xs = append(xs, s.s)
		}
	}
	if len(xs) == 0 {
		if p.err != nil {
			return 0, 0, p.err
		}
		return 0, 0, fmt.Errorf("no speed probe ran in the %v measured", t1.Sub(t0))
	}
	return probeNominal / mean(xs), len(xs), nil
}
