package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildNvdserve compiles ./cmd/nvdserve of the repository at repo into
// dir and returns the binary's path. The go command inherits this
// process's environment, so a caller that points GOCACHE into the
// checkout keeps every build artifact there.
func buildNvdserve(ctx context.Context, repo, dir string) (string, error) {
	bin := filepath.Join(dir, "nvdserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/nvdserve")
	cmd.Dir = repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("building nvdserve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one nvdserve child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// pprof is the base URL of the daemon's -pprof-addr listener, which
	// the benchmark uses to force a GC before each timed phase and to
	// read the runtime's memory statistics.
	pprof string
	// exited closes once the process has been reaped.
	exited chan struct{}

	mu   sync.Mutex
	tail []string // last lines of output, for error reports
}

// startDaemon execs nvdserve with args plus a data directory and an
// ephemeral loopback port, and returns once the daemon has printed its
// listening address (a primary prints it only after its first
// generation is installed). The child dies with this process.
func startDaemon(ctx context.Context, bin, dataDir string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0", "-data-dir", dataDir, "-drain-wait", "0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		pw.Close()
		close(d.exited)
	}()
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			// The pprof line is printed before the serving listener's,
			// so d.pprof is set before listening is signalled.
			if rest, ok := strings.CutPrefix(line, "nvdserve: pprof listening on "); ok {
				d.pprof = strings.TrimSuffix(rest, "/debug/pprof/")
			}
			if rest, ok := strings.CutPrefix(line, "nvdserve: listening on "); ok {
				select {
				case listening <- rest:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 40 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, pr)
	}()
	select {
	case d.base = <-listening:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("nvdserve exited during boot: %s", d.output())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// readyPoll is the /readyz polling interval: frequent enough that a
// boot's wall time is not rounded much, rare enough that answering the
// polls costs a booting follower well under 1% of its CPU.
const readyPoll = 10 * time.Millisecond

// waitReady polls /readyz on c until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("nvdserve exited before ready: %s", d.output())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nvdserve not ready after %s: %s", timeout, d.output())
		}
	}
}

// kill sends SIGKILL — a crash, as far as the store is concerned — and
// waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// stop shuts the daemon down gracefully (SIGINT), falling back to
// SIGKILL after a grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// procField reads one numeric field of a /proc/<pid>/<file> listing.
func (d *daemon) procField(file, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", d.cmd.Process.Pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no " + field + " in /proc/" + file)
}

// peakRSSMB is the process's resident high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := d.procField("status", "VmHWM")
	return float64(kb) / 1024, err
}

// cpuSeconds is the CPU time (user plus system) the process has used.
// Unlike wall time it excludes time the hypervisor gave to other
// guests, which on a shared 2-vCPU host swings from 10% to 45% of the
// CPU within seconds.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name, which may hold
	// spaces: utime and stime are fields 14 and 15 of the line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc/<pid>/stat line")
	}
	var ticks int64
	for _, field := range f[11:13] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return float64(ticks) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times, which
// Linux fixes at 100.
const clockTicks = 100

// memStats is the part of the daemon's runtime.MemStats the benchmark
// reads: bytes and heap objects allocated so far, the live heap, and
// the number of collections.
type memStats struct {
	totalAlloc, mallocs, heapAlloc, numGC float64
}

// forcedGCs is how many full collections collect runs back to back. A
// sync.Pool keeps its objects through one collection (in its victim
// cache) and drops them at the second. Two therefore empty every pool,
// so a timed phase cannot reuse a buffer that an earlier phase grew.
// With one, whether the boot checkpoint's JSON encoder buffers (tens of
// MB) were still pooled when the phase's checkpoint was written moved
// ingest's allocation per post by up to a fifth, at random.
const forcedGCs = 2

// collect runs forcedGCs full garbage collections in the daemon and
// returns its memory statistics afterwards, via the heap profile of its
// pprof listener (?gc=1 collects first, ?debug=1 appends
// runtime.MemStats). Timed phases start right after one, so each
// begins from the same heap state.
func (d *daemon) collect(ctx context.Context, c *http.Client) (memStats, error) {
	var m memStats
	var err error
	for i := 0; i < forcedGCs; i++ {
		if m, err = d.memStats(ctx, c); err != nil {
			return m, err
		}
	}
	return m, nil
}

// memStats collects once and reads runtime.MemStats from the heap
// profile.
func (d *daemon) memStats(ctx context.Context, c *http.Client) (memStats, error) {
	defer dropConns(c)
	var m memStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.pprof+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return m, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "Mallocs":
			dst = &m.mallocs
		case "HeapAlloc":
			dst = &m.heapAlloc
		case "NumGC":
			dst = &m.numGC
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return m, err
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if found != 4 {
		return m, fmt.Errorf("%s: heap profile without runtime.MemStats", d.pprof)
	}
	return m, nil
}

// collectEach runs collect on every daemon of ds, in order.
func collectEach(ctx context.Context, c *http.Client, ds []*daemon) ([]memStats, error) {
	ms := make([]memStats, len(ds))
	for i, d := range ds {
		var err error
		if ms[i], err = d.collect(ctx, c); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// writeBytes is the bytes the process has caused to be sent to storage.
func (d *daemon) writeBytes() (int64, error) {
	return d.procField("io", "write_bytes")
}
