package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// proc is one child process the benchmark launched: a metaai-serve replica
// or the metaai-fleet router. Its log (stderr) goes to a file, so logging
// costs the client nothing while it measures; a marker line in the log
// signals readiness.
type proc struct {
	name string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped
}

// startProc launches bin with its log at logPath.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The kernel kills the child if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through done, not here
		close(p.done)
	}()
	return p, nil
}

// waitReady polls the log until marker appears, the process exits, or the
// timeout passes.
func (p *proc) waitReady(marker string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if b, err := os.ReadFile(p.log); err == nil && strings.Contains(string(b), marker) {
			return nil
		}
		if !p.alive() {
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v:\n%s", p.name, timeout, p.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// logTail returns the last lines of the process's log, for error reports.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log) // a missing log just gives an empty tail
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "  " + strings.Join(lines, "\n  ")
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// stop asks the process to drain and exit (SIGTERM), kills it if it has
// not exited within five seconds, and waits until it is reaped.
func (p *proc) stop() {
	if !p.alive() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu returns the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat; the kernel fixes it at 100 for user space.
const clockTicks = 100

// parseProcStatCPU extracts utime+stime from one /proc/<pid>/stat line.
// The command name (field 2) may contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStatCPU(b []byte) (time.Duration, error) {
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", s)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state), so utime (field 14) is f[11], stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	var ticks uint64
	for _, field := range f[11:13] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// freePorts reserves n distinct loopback ports of the given network
// ("udp" or "tcp") by binding them all at once, then releases them for the
// children to bind.
func freePorts(network string, n int) ([]int, error) {
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		switch network {
		case "udp":
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, err
			}
			closers = append(closers, c)
			ports = append(ports, c.LocalAddr().(*net.UDPAddr).Port)
		default:
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			closers = append(closers, l)
			ports = append(ports, l.Addr().(*net.TCPAddr).Port)
		}
	}
	return ports, nil
}

// fetchSnapshot reads a sidecar's metrics snapshot (/metrics.json).
func fetchSnapshot(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("sidecar %s: %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("sidecar %s: %w", addr, err)
	}
	return snap, nil
}
