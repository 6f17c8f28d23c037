// Command suud serves the SUU planner over HTTP/JSON: POST /v1/plan
// (LP-rounded oblivious schedules), POST /v1/plan/batch (many plan items
// per request with per-item status, intra-batch dedupe, and cost-weighted
// admission), POST /v1/estimate (Monte Carlo makespan estimates, NDJSON
// streaming with "stream": true), GET /healthz, GET /metrics. Requests are
// admission-controlled, coalesced, and cached content-addressed — see
// internal/service.
//
// Run it:
//
//	suud -addr 127.0.0.1:8650 -workers 8 -queue 64
//
// and drive it with cmd/suuload. SIGINT/SIGTERM shut down gracefully:
// /readyz flips to 503 first, the listener closes, in-flight requests
// drain, and the planner's detached work is awaited.
//
// Overload behavior is configurable: -degraded-policy picks between
// rejecting with 429 (reject), serving uncertified greedy fallback plans
// for independent-job requests (independent), or for everything (all)
// once admission pressure crosses -brownout-threshold. -chaos enables
// the fault-injection harness (internal/faults) for resilience drills.
//
// Every answer is kept in one in-memory tier of -store-mem-bytes. -store-dir
// adds a crash-safe durable plan store (internal/store) under it: computed
// plans persist to an append-only checksummed log and survive restarts, so
// a warm replica recomputes nothing. -peers (with -self and -store-dir)
// replicates that store across a static fleet: each key has two ring
// owners, local misses fall through to them, writes fan out
// asynchronously, and a restarted replica pulls what it missed before
// /readyz goes green. -fsync picks the durability point (always |
// interval | never).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8650", "listen address")
		workers   = flag.Int("workers", 0, "concurrent computations (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "queue depth before 429s (0 = 4x workers)")
		drainWait = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")

		degradedPolicy = flag.String("degraded-policy", service.DegradeNever,
			"overload response: reject (429s), independent (greedy fallback plans for independent-job requests), or all")
		brownout = flag.Float64("brownout-threshold", 0.75,
			"queue-pressure fraction (0..1] at which degraded fallbacks kick in")

		storeDir      = flag.String("store-dir", "", "durable plan store directory (empty = no disk tier)")
		storeMemBytes = flag.Int64("store-mem-bytes", 64<<20, "byte budget of the in-memory tier every answer is served from (must be > 0)")
		fsyncMode     = flag.String("fsync", "interval", "disk store durability: always, interval (every 100ms), or never")
		self          = flag.String("self", "", "this replica's base URL as peers reach it (required with -peers)")
		peers         = flag.String("peers", "", "comma-separated replica base URLs, self included; replicates the -store-dir store (requires -store-dir)")

		chaos     = flag.Bool("chaos", false, "inject faults into POST requests: 10% ~50ms latency, 5% 503s, 2% handler panics")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-stream seed (same seed, same arrival order => same faults)")

		traceSample = flag.Float64("trace-sample", 0.01, "request-trace sampling probability in [0,1]; errors, degraded serves, and the slowest requests are always kept")
		traceRing   = flag.Int("trace-ring", 512, "kept traces retained for /debug/traces (0 disables the recorder)")
		traceSlow   = flag.Int("trace-slow", 32, "slowest traces pinned in /debug/traces regardless of age")
		traceLog    = flag.String("trace-log", "", "append kept traces to this binary CRC-framed log file")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	)
	flag.Parse()

	if lv, ok := trace.LevelFromString(*logLevel); ok {
		trace.SetLevel(lv)
	} else {
		trace.Fatal("bad -log-level", "got", *logLevel, "want", "debug|info|warn|error")
	}

	switch *degradedPolicy {
	case service.DegradeNever, service.DegradeIndependent, service.DegradeAll:
	default:
		trace.Fatal("bad -degraded-policy",
			"got", *degradedPolicy,
			"want", fmt.Sprintf("%s|%s|%s", service.DegradeNever, service.DegradeIndependent, service.DegradeAll))
	}

	var traceLogWriter *trace.LogWriter
	if *traceLog != "" {
		lw, err := trace.OpenLog(*traceLog)
		if err != nil {
			trace.Fatal("opening trace log", "path", *traceLog, "err", err)
		}
		traceLogWriter = lw
	}

	var inj *faults.Injector
	if *chaos {
		inj = faults.New(faults.Config{
			Seed:       *chaosSeed,
			LatencyP:   0.10,
			Latency:    50 * time.Millisecond,
			ErrorP:     0.05,
			PanicP:     0.02,
			HTTPMethod: http.MethodPost, // keep /healthz, /readyz, /metrics probes clean
		})
	}

	if *storeMemBytes <= 0 {
		trace.Fatal("bad -store-mem-bytes: the memory tier is always on", "got", *storeMemBytes)
	}

	// The plan store under the planner's memory tier: the disk log, with the
	// replication layer over it in a fleet. A nil store means compute and
	// memory only.
	var planStore store.PlanStore
	{
		if *storeDir != "" {
			pol, err := store.ParseFsyncPolicy(*fsyncMode)
			if err != nil {
				trace.Fatal("bad -fsync", "err", err)
			}
			// CompactBytes has no library default (zero means never compact).
			disk, err := store.Open(*storeDir, store.DiskConfig{Fsync: pol, CompactBytes: 256 << 20})
			if err != nil {
				trace.Fatal("opening store", "dir", *storeDir, "err", err)
			}
			planStore = disk
		}
		if *peers != "" {
			var peerList []string
			for _, p := range strings.Split(*peers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peerList = append(peerList, p)
				}
			}
			if *self == "" {
				trace.Fatal("-peers needs -self (this replica's URL in the peer list)")
			}
			if planStore == nil {
				trace.Fatal("-peers needs -store-dir (the local store the fleet replicates)")
			}
			rep, err := store.NewReplicated(planStore, store.ReplicatedConfig{
				Self:       *self,
				Peers:      peerList,
				HandoffDir: *storeDir, // hints persist next to the log
			})
			if err != nil {
				trace.Fatal("replicated store", "err", err)
			}
			planStore = rep
		}
	}

	planner := service.NewPlanner(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		MemBytes:          *storeMemBytes,
		DegradedPolicy:    *degradedPolicy,
		BrownoutThreshold: *brownout,
		Store:             planStore,
		TraceSample:       *traceSample,
		TraceRing:         *traceRing,
		TraceSlowN:        *traceSlow,
		TraceLog:          traceLogWriter,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           inj.Wrap(service.NewServer(planner)),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := planner.Warmup(); err != nil {
		trace.Fatal("warmup failed", "err", err)
	}

	if *debugAddr != "" {
		// pprof on its own listener so profiling endpoints never share the
		// service port (or its chaos middleware) with production traffic.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				trace.Warn("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		defer dsrv.Close()
		trace.Info("pprof listening", "addr", *debugAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	cfg := planner.Config()
	storeName := "none"
	if planStore != nil {
		storeName = planStore.Name()
	}
	trace.Info("serving",
		"addr", *addr, "workers", cfg.Workers, "queue", cfg.QueueDepth,
		"mem_bytes", cfg.MemBytes,
		"policy", cfg.DegradedPolicy, "brownout", cfg.BrownoutThreshold,
		"store", storeName, "chaos", inj != nil,
		"trace_sample", *traceSample, "trace_ring", *traceRing)

	select {
	case err := <-errCh:
		trace.Fatal("listener failed", "err", err)
	case <-ctx.Done():
	}
	trace.Info("shutting down", "drain_budget", *drainWait)
	// Flip /readyz before closing the listener so load balancers stop
	// sending new work while in-flight requests drain.
	planner.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		trace.Warn("shutdown", "err", err)
	}
	planner.Close()
	// The planner is done issuing puts; now the store can flush and close.
	if planStore != nil {
		if err := planStore.Close(); err != nil {
			trace.Warn("closing store", "err", err)
		}
	}
	if traceLogWriter != nil {
		if err := traceLogWriter.Close(); err != nil {
			trace.Warn("closing trace log", "err", err)
		}
	}
	if inj != nil {
		trace.Info("chaos ledger", "snapshot", fmt.Sprintf("%+v", inj.Snapshot()))
	}
	trace.Info("drained", "final", planner.Metrics())
}
