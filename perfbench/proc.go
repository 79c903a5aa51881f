package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a server process under test, started from a shipped
// binary with its stderr parsed for the addresses it bound.
type daemon struct {
	cmd     *exec.Cmd
	started time.Time
	addr    string // the serving address from "listening on <addr>"
	admin   string // the admin address from "admin plane on http://<addr>", if any
	log     bytes.Buffer
	logDone chan struct{}
}

// startDaemon execs bin with args and waits until it logs its serving
// address (and, when wantAdmin, its admin address first). The daemons
// log "admin plane on http://<addr>" before "listening on <addr>".
func startDaemon(bin string, args []string, wantAdmin bool) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, args...), logDone: make(chan struct{})}
	d.cmd.SysProcAttr = dieWithParent()
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	ready := make(chan struct{})
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.log.WriteString(line + "\n")
			if signalled {
				continue
			}
			if i := strings.Index(line, "admin plane on http://"); i >= 0 {
				d.admin = strings.Fields(line[i+len("admin plane on http://"):])[0]
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				d.addr = strings.Fields(line[i+len("listening on "):])[0]
				signalled = true
				close(ready)
			}
		}
		if !signalled {
			close(ready)
		}
	}()
	select {
	case <-ready:
	case <-time.After(60 * time.Second):
	}
	if d.addr == "" || (wantAdmin && d.admin == "") {
		_ = d.stop()
		return nil, fmt.Errorf("%s did not report its addresses; log:\n%s", bin, d.logText())
	}
	return d, nil
}

// dieWithParent makes a child get SIGKILL if the benchmark dies first,
// so a run killed from outside leaves no daemon behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// logText returns what the daemon has logged. Only safe after stop.
func (d *daemon) logText() string { return d.log.String() }

// pid returns the process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits up to 15s for a clean exit, then kills. It
// returns only after the process has been reaped and its log drained.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() {
		<-d.logDone
		waited <- d.cmd.Wait()
	}()
	select {
	case err := <-waited:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-waited
		return fmt.Errorf("%s did not exit on SIGTERM; killed", d.cmd.Path)
	}
}

// setupTimes returns the wall time since the daemon was exec'd and the
// CPU it has used so far, in seconds. Called at its first verified
// answer, the CPU figure is its set-up cost: snapshot load and compile,
// steady where the wall time follows how busy the machine is.
func (d *daemon) setupTimes() (wall, cpu float64, err error) {
	w := time.Since(d.started)
	c, err := procCPU(d.pid())
	return w.Seconds(), c.Seconds(), err
}

// procCPU returns the CPU time a live process has used, summed over
// its threads from /proc/<pid>/task/<tid>/schedstat, whose first field
// is the thread's run time in nanoseconds. Unlike utime and stime in
// /proc/<pid>/stat, which count 10ms ticks, this resolves a set-up of a
// few milliseconds. A thread that has exited drops out of the sum; the
// Go runtime keeps its threads for the life of the process.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the directory was read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU returns the user+system CPU time the benchmark's own process
// has used, all threads included.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runResult is a finished child's wall time and resource use.
type runResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system, from rusage
	rssMB  float64       // peak RSS, from rusage
	stdout []byte
}

// runTool runs a one-shot binary to completion and reads its own
// resource use from rusage, so the benchmark's CPU and memory never mix
// into the numbers.
func runTool(bin string, args ...string) (runResult, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = dieWithParent()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	r := runResult{wall: time.Since(t0), stdout: out.Bytes()}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w\n%s", bin, strings.Join(args, " "), err, errb.String())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // KB on Linux
	}
	return r, nil
}

// hostCPU reads the machine-wide CPU counters from /proc/stat: the time
// the hypervisor gave to other guests (steal) and the total, in ticks.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ { // guest time is already in user
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// stealSince reports the share of machine CPU time stolen by the
// hypervisor since a hostCPU reading: interference from outside the
// container, printed so a noisy run can be told from a slow program.
func stealSince(steal0, total0 int64) float64 {
	steal1, total1 := hostCPU()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}
