package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// schedule is an open-loop send schedule: request i is due at
// start + i/rate, independent of when earlier requests completed. Due
// times are computed from the index, never accumulated, so a long run
// does not drift.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
	n     int     // requests in the window
}

// newSchedule plans a window of the given length at rate.
func newSchedule(start time.Time, rate float64, window time.Duration) schedule {
	return schedule{start: start, rate: rate, n: int(rate * window.Seconds())}
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// lag is how late request i went out when it was sent at sent; an
// early send (impossible for a generator that waits for due times, but
// harmless) counts as on time.
func (s schedule) lag(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.due(i)); d > 0 {
		return d
	}
	return 0
}

// latency is request i's latency timed from its due time, so a stall
// in the generator or the server is charged to every request queued
// behind it, not only to the one that stalled.
func (s schedule) latency(i int, done time.Time) time.Duration {
	return done.Sub(s.due(i))
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// pacer sleeps a goroutine until due times with microsecond accuracy.
// Go's timers wake no sooner than the netpoller's millisecond tick, far
// coarser than the gaps between requests, so a pacer pins its goroutine
// to an OS thread with a 1µs timer slack and sleeps in nanosleep(2).
// The goroutine that calls newPacer must call release when done. A
// pacer holds its P while it sleeps, so the process runs with a P to
// spare for every pacer (see pacerProcs).
type pacer struct{}

const prSetTimerSlack = 29

func newPacer() pacer {
	runtime.LockOSThread()
	// Best effort: without the slack change nanosleep still works, only
	// 50µs coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return pacer{}
}

// sleepUntil returns at or shortly after t.
func (pacer) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// A raw syscall keeps the goroutine on its P: a plain one lets
		// the scheduler hand the P away during the sleep, and getting
		// one back on wake-up costs more lateness than the sleep saves.
		// EINTR just loops; the remaining time is recomputed.
		_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}

// pacerProcs gives the process a spare P for every pacer: a pacer holds
// its P while it sleeps, and without spares the receiving goroutines and
// the runtime would wait on it. Load concurrency stays at NumCPU
// goroutines. It returns a function restoring the previous setting.
func pacerProcs() (restore func()) {
	prev := runtime.GOMAXPROCS(2 * runtime.NumCPU())
	return func() { runtime.GOMAXPROCS(prev) }
}

// release unpins the thread. The thread keeps its timer slack, which
// only makes its later sleeps more precise.
func (pacer) release() { runtime.UnlockOSThread() }
