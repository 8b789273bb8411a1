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

// server is one cmd/server process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // the process's exit status, set before exited closes
}

// startServer starts the server binary with args plus a free loopback
// address and waits for its first 200 from /readyz. It returns the
// seconds from process start to that answer.
func startServer(bin, logPath string, args []string) (*server, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child keeps its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	go func() { s.err = cmd.Wait(); close(s.exited) }()

	probe := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited before ready (%v); log in %s", s.err, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("server not ready after %v; log in %s", time.Since(start), logPath)
		}
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// kill stops the process at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an already exited process is fine
	<-s.exited
}

// stop asks the process to drain and exit, and kills it if it has not
// exited within a grace period.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // kill below covers a failed signal
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// rssSampler samples a process's resident set size at a fixed interval
// until stopped.
type rssSampler struct {
	cancel  context.CancelFunc
	done    chan struct{}
	samples []float64 // MB
}

func sampleRSS(pid int, every time.Duration) *rssSampler {
	ctx, cancel := context.WithCancel(context.Background())
	r := &rssSampler{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb, err := rssMB(pid); err == nil {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the samples.
func (r *rssSampler) stop() []float64 {
	r.cancel()
	<-r.done
	return r.samples
}

func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short statm")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; 100 on every Linux
// platform Go supports.
const clockTicks = 100

// procCPUSeconds returns a process's user plus system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU times in /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTicks, nil
}

// hostStealSeconds returns the machine's cumulative steal time.
func hostStealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat first line %q", line)
	}
	steal, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(steal) / clockTicks, nil
}
