//go:build e2e

package main

import (
	"bytes"
	"errors"
	"net/http"
	"os/exec"
	"testing"
	"time"
)

// TestFlagValidation starts the real daemon with each flag setting it must
// refuse and checks that it exits nonzero, with the matching complaint on
// stderr, before it ever answers /healthz.
//
// Run it with: go test -tags e2e -run TestFlagValidation ./cmd/suud
func TestFlagValidation(t *testing.T) {
	bin := buildSuud(t)
	const peer = "http://127.0.0.1:1"
	cases := []struct {
		name string
		args []string
		want string // on stderr
	}{
		{"memory tier off", []string{"-store-mem-bytes", "0"}, "bad -store-mem-bytes"},
		{"peers without store-dir", []string{"-peers", peer, "-self", peer}, "-peers needs -store-dir"},
		{"peers without self", []string{"-peers", peer, "-store-dir", t.TempDir()}, "-peers needs -self"},
		{"bad degraded-policy", []string{"-degraded-policy", "sometimes"}, "bad -degraded-policy"},
		{"bad fsync", []string{"-fsync", "often", "-store-dir", t.TempDir()}, "bad -fsync"},
		{"bad log-level", []string{"-log-level", "loud"}, "bad -log-level"},
		{"deleted flag", []string{"-replication", "3"}, "flag provided but not defined: -replication"},
	}
	probe := &http.Client{Timeout: 100 * time.Millisecond}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			cmd := exec.Command(bin, append([]string{"-addr", addr}, tc.args...)...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			deadline := time.After(20 * time.Second)
			for {
				select {
				case err := <-exited:
					var ee *exec.ExitError
					if !errors.As(err, &ee) || ee.ExitCode() <= 0 {
						t.Fatalf("exit: %v, want a nonzero exit status\n%s", err, stderr.Bytes())
					}
					if !bytes.Contains(stderr.Bytes(), []byte(tc.want)) {
						t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr.Bytes())
					}
					return
				case <-deadline:
					_ = cmd.Process.Kill()
					<-exited
					t.Fatalf("still running after 20s\n%s", stderr.Bytes())
				default:
				}
				if resp, err := probe.Get("http://" + addr + "/healthz"); err == nil {
					resp.Body.Close()
					_ = cmd.Process.Kill()
					<-exited
					t.Fatalf("answered /healthz with %d", resp.StatusCode)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
