package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// healthTimeout is how long a freshly started server may take to answer
// /healthz before the run is abandoned.
const healthTimeout = 30 * time.Second

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// child is a running `tpad serve` child.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed
}

// runBuild runs `tpad build` to completion and returns its wall time.
func runBuild(ctx context.Context, tpad string, args []string) (time.Duration, error) {
	start := time.Now()
	out, err := exec.CommandContext(ctx, tpad, append([]string{"build"}, args...)...).CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("tpad build: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches `tpad serve` on a free loopback port and returns once
// /healthz answers 200. It fails if the child exits first or the deadline
// passes; the child is gone by the time an error is returned.
func startServer(ctx context.Context, tpad string, args []string) (*child, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("finding a free port: %w", err)
	}
	s := &child{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.CommandContext(ctx, tpad, append([]string{"serve", "-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting tpad serve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.After(healthTimeout)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if resp, err := probe.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("tpad serve exited before it was healthy: %v\n%s", s.err, s.stderr.String())
		case <-deadline:
			s.stop()
			return nil, 0, fmt.Errorf("tpad serve not healthy within %v\n%s", healthTimeout, s.stderr.String())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-tick.C:
		}
	}
}

// alive reports whether the child is still running.
func (s *child) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("tpad serve exited early: %v", s.err)
	default:
		return nil
	}
}

// stop asks the child to drain (SIGTERM), kills it if it lingers, and
// returns only after it has been reaped.
func (s *child) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds returns the child's cumulative user+system CPU time.
func (s *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th overall, so 12th and 13th (index 11, 12) after it.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat format: %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat CPU fields: %q %q", f[11], f[12])
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB returns the child's resident-set high-water mark (VmHWM).
func (s *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPUSeconds returns this process's cumulative user+system CPU time:
// the generator's cost, reported next to the server's.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
