package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one suud process, pinned to the server CPU with GOMAXPROCS=1
// and given a fresh store directory.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan error // receives cmd.Wait's result once
}

// userHZ is the kernel's clock-tick rate for /proc CPU times; Linux fixes
// it at 100 for user space.
const userHZ = 100

// startServer execs suud. traced selects -trace-sample 1 (every response
// carries X-Suu-Trace) over tracing off.
func startServer(opt *options, dir string, traced bool) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	sample := "0"
	if traced {
		sample = "1"
	}
	cmd := exec.Command("taskset", "-c", strconv.Itoa(opt.serverCPU), opt.suud,
		"-addr", addr,
		"-store-dir", filepath.Join(dir, "store"),
		"-trace-sample", sample,
		"-trace-ring", "0",
		"-drain", "5s",
		"-log-level", "warn")
	env := []string{"GOMAXPROCS=1"}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, pinEnv+"=") {
			env = append(env, kv)
		}
	}
	cmd.Env = env
	cmd.Stderr = os.Stderr
	// If this process is killed, suud goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting suud: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("suud exited before ready: %v", err)
		default:
		}
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("suud not ready after %v", timeout)
}

// stop shuts suud down, waits for it to exit and removes its directory.
func (s *server) stop() error {
	var err error
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err = <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			err = <-s.done
		}
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.Exited() {
		err = fmt.Errorf("suud exited with %v", err)
	} else {
		err = nil // killed by our signal
	}
	if rmErr := os.RemoveAll(s.dir); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// cpuSeconds is suud's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat CPU times")
	}
	return float64(ut+st) / userHZ, nil
}

// peakRSSMB is suud's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverMetrics is the part of suud's /metrics snapshot the ledger reads.
type serverMetrics struct {
	Plans       uint64 `json:"plans"`
	Rejected    uint64 `json:"rejected"`
	Coalesced   uint64 `json:"coalesced"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

func (s *server) metrics() (serverMetrics, error) {
	var m serverMetrics
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// hostCPU is the machine-wide /proc/stat CPU time split.
type hostCPU struct{ steal, total float64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("unexpected /proc/stat")
	}
	var h hostCPU
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return hostCPU{}, err
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h, nil
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
