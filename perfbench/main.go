// Command perfbench is suud's performance ledger. It starts suud pinned to
// one CPU, drives it from this single-process load generator pinned to
// another, checks every response, and reports one workload's metrics:
// the end-to-end metrics from an untraced run (--trace 0), or the
// per-layer metrics from a traced run plus an in-process pass over the
// same seeded inputs (--trace 1).
//
// Run it from the repository root through run.sh, which builds suud and
// this program into .bench_build first:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 55 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics; the lines before it are a readable summary. The exit code is 0
// only when every response passed its correctness check and the load
// generator did not saturate its CPU.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pinEnv carries "<server CPU>,<allowed CPU count>" across the re-exec
// that pins this process to the generator's CPU; its presence means the
// pinning is done.
const pinEnv = "PERFBENCH_PIN"

// buildDir holds everything the benchmark builds and writes, relative to
// the repository root it runs from.
const buildDir = ".bench_build"

func main() {
	if os.Getenv(pinEnv) == "" {
		err := pinAndReexec()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	os.Exit(run())
}

// pinAndReexec replaces this process with itself under taskset, pinned to
// the second allowed CPU with GOMAXPROCS=1; the server gets the first. It
// returns only on failure. With a single allowed CPU both share it, and
// the generator uses one connection.
func pinAndReexec() error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	srv, gen := cpus[0], cpus[0]
	if len(cpus) > 1 {
		gen = cpus[1]
	}
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return fmt.Errorf("pinning needs taskset: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	argv := append([]string{"taskset", "-c", strconv.Itoa(gen), self}, os.Args[1:]...)
	env := append(os.Environ(), "GOMAXPROCS=1", fmt.Sprintf("%s=%d,%d", pinEnv, srv, len(cpus)))
	return fmt.Errorf("exec taskset: %w", syscall.Exec(taskset, argv, env))
}

// allowedCPUs parses this process's Cpus_allowed_list ("0-1", "0,2-3").
func allowedCPUs() ([]int, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil, fmt.Errorf("reading allowed CPUs: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return parseCPUList(strings.TrimSpace(v))
		}
	}
	return nil, errors.New("no Cpus_allowed_list in /proc/self/status")
}

func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("bad CPU list %q", s)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil, fmt.Errorf("bad CPU list %q", s)
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		return nil, fmt.Errorf("empty CPU list %q", s)
	}
	return cpus, nil
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverCPU int
	// conns is the connection count: one per allowed CPU, so 1 when the
	// server and the generator share a CPU.
	conns  int
	suud   string
	runDir string
}

func run() int {
	var opt options
	var traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&opt.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&opt.seconds, "seconds", 55, "measured seconds per run (open-loop plus closed-loop phase)")
	flag.IntVar(&traceFlag, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || opt.seconds < 4 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name|all> --seed <n> --seconds <n≥4> --trace <0|1>")
		return 2
	}
	opt.trace = traceFlag == 1
	if _, err := fmt.Sscanf(os.Getenv(pinEnv), "%d,%d", &opt.serverCPU, &opt.conns); err != nil || opt.conns < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad", pinEnv)
		return 2
	}
	if runtime.GOMAXPROCS(0) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: the generator must run with GOMAXPROCS=1")
		return 2
	}
	opt.suud = filepath.Join(buildDir, "suud")
	if _, err := os.Stat(opt.suud); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: no suud binary at %s (run through perfbench/run.sh): %v\n", opt.suud, err)
		return 2
	}
	opt.runDir = filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(opt.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(opt.runDir)

	var wls []*workload
	if opt.workload == "all" {
		wls = workloads
	} else if wl := workloadByName(opt.workload); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n",
			opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, wl := range wls {
		res, err := runWorkload(wl, &opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		printSummary(wl, &opt, res)
		if !res.Correct {
			code = 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(wls) > 1 {
				name = wl.name + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	out, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return code
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string          // summary lines printed before the JSON
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func printSummary(wl *workload, opt *options, res *result) {
	mode := "untraced"
	if opt.trace {
		mode = "traced"
	}
	fmt.Printf("# %s (%s, seed %d, %ds, offered %.0f/s)\n", wl.name, mode, opt.seed, opt.seconds, wl.rate)
	for _, n := range res.notes {
		fmt.Println("#   " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}
