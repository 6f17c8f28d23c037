//go:build e2e

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestRestartWarm is crash safety end to end on the real daemon: warm a
// disk-backed suud, SIGKILL it (no graceful close — the log keeps exactly
// what fsync committed), restart it on the same directory, and replay the
// identical workload. The restarted daemon must answer everything from the
// recovered disk log: nothing recomputed, no store misses, nothing
// quarantined.
//
// Run it with: go test -tags e2e -run TestRestartWarm ./cmd/suud
func TestRestartWarm(t *testing.T) {
	bin := buildSuud(t)
	dir := t.TempDir()

	// The workload: 8 uniform n=64/m=16 instances, each planned three times.
	var bodies [][]byte
	for seed := int64(1); seed <= 8; seed++ {
		ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 16, N: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&service.PlanRequest{Instance: ins})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	replay := func(base string) {
		t.Helper()
		for pass := 0; pass < 3; pass++ {
			for i, b := range bodies {
				resp, err := http.Post(base+"/v1/plan", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Fatalf("plan %d: %v", i, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("plan %d: status %d", i, resp.StatusCode)
				}
			}
		}
	}

	warm := startSuud(t, bin, dir)
	replay(warm.base)
	warm.kill()

	restarted := startSuud(t, bin, dir)
	replay(restarted.base)
	var m service.MetricsSnapshot
	resp, err := http.Get(restarted.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Plans == 0 {
		t.Errorf("plans = 0: the restarted daemon served nothing")
	}
	if m.PlansComputed != 0 {
		t.Errorf("plans_computed = %d, want 0", m.PlansComputed)
	}
	if m.StoreDiskHits == 0 {
		t.Errorf("store_disk_hits = 0, want > 0")
	}
	if m.StoreMisses != 0 {
		t.Errorf("store_misses = %d, want 0", m.StoreMisses)
	}
	if m.StoreCorrupt != 0 {
		t.Errorf("store_corrupt_dropped = %d, want 0", m.StoreCorrupt)
	}
	if m.StoreEntries < len(bodies) {
		t.Errorf("store_entries = %d, want >= %d", m.StoreEntries, len(bodies))
	}
	t.Logf("restarted: plans=%d plans_computed=%d store_disk_hits=%d store_entries=%d",
		m.Plans, m.PlansComputed, m.StoreDiskHits, m.StoreEntries)
}

// buildSuud builds the daemon from this package into a temp directory.
func buildSuud(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "suud")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building suud: %v\n%s", err, out)
	}
	return bin
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

type suudProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
}

// kill SIGKILLs the process and waits for it to exit.
func (p *suudProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if it already exited
	<-p.done
}

// startSuud runs bin on a free loopback port over the store directory
// with -fsync always, and waits for /readyz. The process is killed at the
// end of the test if it is still running.
func startSuud(t *testing.T, bin, dir string) *suudProc {
	t.Helper()
	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-store-dir", dir, "-fsync", "always", "-log-level", "warn")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &suudProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon exits with an error by design
		close(p.done)
	}()
	t.Cleanup(p.kill)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		select {
		case <-p.done:
			t.Fatalf("suud at %s exited before ready", addr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("suud at %s not ready after 30s (last error %v)", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
