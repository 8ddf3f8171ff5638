package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonSeed is sbserved's shipped -seed default: the daemon's
// bootstrap corpus and admission wiring are the ones a deployment
// started without flags gets, whatever the workload seed.
const daemonSeed = 1

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// daemon is one launched sbserved process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	dir     string // snapshot directory, removed on stop
	args    []string
	setup   time.Duration // launch to first 200 from /healthz
	stderr  *stderrLog
	stopped bool
}

// launch starts sbserved on a free loopback port with a fresh snapshot
// directory and waits until /healthz answers 200. Only -addr and
// -snapshot-dir are set: everything else runs at the shipped defaults.
// The snapshot directory enables POST /admin/save, through which the
// replay loads the daemon's own model; it starts empty, so the daemon
// bootstraps fresh exactly as without it. gctrace turns on the
// runtime's GC trace on the daemon's stderr.
func launch(bin, workDir string, gctrace bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "snap-")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		url:    "http://" + port,
		dir:    dir,
		args:   []string{"-addr", port, "-seed", strconv.Itoa(daemonSeed), "-snapshot-dir", dir},
		stderr: &stderrLog{},
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Env = daemonEnv(gctrace)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	exited := make(chan struct{})
	d.stderr.wg.Add(1)
	go func() {
		d.stderr.read(pipe)
		close(exited)
	}()
	probe := newConn(d.url)
	defer probe.Close()
	for {
		if status, _, err := probe.do("GET", "/healthz", "", nil); err == nil && status == 200 {
			d.setup = time.Since(start)
			return d, nil
		}
		select {
		case <-exited:
			d.stop()
			return nil, fmt.Errorf("sbserved exited before it was healthy:\n%s", d.stderr.tail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, fmt.Errorf("sbserved not healthy after 60s:\n%s", d.stderr.tail())
		}
	}
}

// daemonEnv is the loader's environment without the variables that
// would move the daemon off its defaults.
func daemonEnv(gctrace bool) []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOMAXPROCS=") || strings.HasPrefix(kv, "GODEBUG=") || strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMEMLIMIT=") {
			continue
		}
		env = append(env, kv)
	}
	if gctrace {
		env = append(env, "GODEBUG=gctrace=1")
	}
	return env
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10s), waits
// for the process and its stderr reader to end, and removes its
// snapshot directory. It is safe to call twice.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.stderr.wg.Wait()
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(d.dir)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.pid()) }

// peakRSSMB returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.pid()), "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return kb / 1024, err
}

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(data []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	// After ')': field 3 (state) is index 0, so utime (14) and stime
	// (15) are indices 11 and 12.
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// hostSteal reads the host-wide CPU time and the part of it stolen by
// the hypervisor from the first line of /proc/stat, in clock ticks.
func hostSteal() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStatSteal(data)
}

// parseStatSteal parses the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ...
func parseStatSteal(data []byte) (total, steal uint64, err error) {
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
	}
	steal, err = strconv.ParseUint(f[8], 10, 64)
	return total, steal, err
}

// parseStatusKB reads a "Key:   N kB" line from /proc/<pid>/status.
func parseStatusKB(data []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseFloat(f[0], 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// stderrLog drains the daemon's stderr — the pipe must never fill, or
// the daemon would block in its next log call — keeping GC trace
// events and the last lines for error reports.
type stderrLog struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	gc    []gcEvent
	lines []string
}

func (s *stderrLog) read(r io.Reader) {
	defer s.wg.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		ev, isGC := parseGCTrace(line)
		s.mu.Lock()
		if isGC {
			ev.at = time.Now()
			s.gc = append(s.gc, ev)
		} else {
			s.lines = append(s.lines, line)
			if len(s.lines) > 40 {
				s.lines = s.lines[1:]
			}
		}
		s.mu.Unlock()
	}
}

func (s *stderrLog) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

// gcBetween returns the GC cycles whose trace line arrived in [from, to).
func (s *stderrLog) gcBetween(from, to time.Time) []gcEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []gcEvent
	for _, ev := range s.gc {
		if !ev.at.Before(from) && ev.at.Before(to) {
			out = append(out, ev)
		}
	}
	return out
}

// gcEvent is one GC cycle from the runtime's gctrace output.
type gcEvent struct {
	at    time.Time
	pause time.Duration // stop-the-world: sweep termination + mark termination
}

// parseGCTrace parses a gctrace line of the form
//
//	gc 7 @0.512s 3%: 0.030+1.1+0.021 ms clock, 0.060+0.2/0.9/0+0.043 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
//
// The first and last of the three wall-clock phases are the
// stop-the-world pauses.
func parseGCTrace(line string) (gcEvent, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return gcEvent{}, false
	}
	_, rest, ok := strings.Cut(line, ": ")
	if !ok {
		return gcEvent{}, false
	}
	clock, _, ok := strings.Cut(rest, " ms clock")
	if !ok {
		return gcEvent{}, false
	}
	phases := strings.Split(clock, "+")
	if len(phases) != 3 {
		return gcEvent{}, false
	}
	stw1, err1 := strconv.ParseFloat(phases[0], 64)
	stw2, err2 := strconv.ParseFloat(phases[2], 64)
	if err1 != nil || err2 != nil {
		return gcEvent{}, false
	}
	return gcEvent{pause: time.Duration((stw1 + stw2) * float64(time.Millisecond))}, true
}
