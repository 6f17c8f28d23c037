// Service: run the suud planner in-process, hit it over real HTTP with
// the suuload open-loop harness — single requests first, then batch mode
// at the same offered item rate, then shaped traffic (a switching rate
// curve with zipf popularity) recorded to a binary trace and replayed at
// 2× — and print what the service measured.
// Then the resilience layer: a second, deliberately tiny server under
// fault injection and overload, driven through the retrying client, shows
// brownout fallbacks, retries, and the readiness lifecycle.
// In between, the durable plan store: compute against a disk-backed
// store, tear the whole stack down, rebuild it on the same directory,
// and replay the workload warm with zero recomputation.
// The one-file version of:
//
//	go run ./cmd/suud &
//	go run ./cmd/suuload -rate 200 -duration 3s -m 8 -n 32
//	go run ./cmd/suuload -op plan-batch -item-rate 200 -batch-size 8 -duration 3s -m 8 -n 32
//	go run ./cmd/suud -store-dir /var/lib/suud &   # kill -9 it; restart serves from the log
//	go run ./cmd/suud -degraded-policy independent -chaos &
//	go run ./cmd/suuload -retries 3 ...
//
// Run it:
//
//	go run ./examples/service
//
// See README.md here for the failure-mode contract the demo exercises.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	// The planner is the service core: bounded workers, content-addressed
	// response cache, request coalescing, admission control.
	planner := service.NewPlanner(service.Config{Workers: 4, QueueDepth: 32})
	srv := &http.Server{Handler: service.NewServer(planner)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("suud serving on %s\n", base)

	// Open-loop load: 200 plan requests/second, Poisson arrivals, cycling
	// two n=32/m=8 instances so the second sight of each is a cache hit.
	rep, err := service.RunLoad(context.Background(), service.LoadConfig{
		BaseURL:  base,
		Mode:     "open",
		Arrival:  "poisson",
		Rate:     200,
		Duration: 3 * time.Second,
		Op:       "plan",
		Specs: []workload.Spec{
			{Family: "uniform", M: 8, N: 32, Seed: 1},
			{Family: "uniform", M: 8, N: 32, Seed: 2},
		},
		Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclient: %d done, %d errors, %.1f req/s\n", rep.Done, rep.Errors, rep.Throughput)
	fmt.Printf("latency: p50=%.2fms p95=%.2fms p99=%.2fms\n",
		rep.LatP50*1e3, rep.LatP95*1e3, rep.LatP99*1e3)
	if sm := rep.ServerMetrics; sm != nil {
		fmt.Printf("server: %v\n", *sm)
	}

	// Batch walkthrough, request by request: one POST to /v1/plan/batch
	// carries several items — including an intra-batch duplicate and a
	// deliberately invalid item — and comes back with per-item status.
	// Payloads are the canonical plans; the envelope's "source" says how
	// each was served (cached / computed / coalesced).
	fresh, err := workload.Generate(workload.Spec{Family: "uniform", M: 8, N: 32, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	repeat, err := workload.Generate(workload.Spec{Family: "uniform", M: 8, N: 32, Seed: 1}) // seed 1 is warm from the load run
	if err != nil {
		log.Fatal(err)
	}
	batchBody, _ := json.Marshal(&service.BatchPlanRequest{Items: []service.PlanRequest{
		{Instance: fresh},
		{Instance: fresh}, // duplicate: deduped inside the batch, one compute
		{Instance: repeat},
		{}, // invalid: fails alone, not the batch
	}})
	// internal/client is the resilient way in: per-attempt timeouts,
	// backoff with jitter, 429/503 and connection errors retried.
	suu := client.New(client.Config{Seed: 1})
	res, err := suu.Do(context.Background(), base+"/v1/plan/batch", batchBody)
	if err != nil {
		log.Fatal(err)
	}
	if res.Status != http.StatusOK {
		log.Fatalf("batch rejected: %d %s", res.Status, res.Body)
	}
	var batch service.BatchPlanResponse
	if err := json.Unmarshal(res.Body, &batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch: %d items → %d ok (%d cached, %d computed, %d coalesced), %d errors, %d cost units\n",
		batch.Size, batch.OK, batch.Cached, batch.Computed, batch.Coalesced, batch.Errors, batch.CostUnits)
	for i, item := range batch.Items {
		if item.Status == "ok" {
			fmt.Printf("  item %d: %-9s t*=%.3f length=%d\n", i, item.Source, item.Plan.TStar, item.Plan.Length)
		} else {
			fmt.Printf("  item %d: error: %s\n", i, item.Error)
		}
	}

	// The same comparison at load: batch mode at the identical offered
	// ITEM rate amortizes per-request HTTP/JSON cost into one round trip
	// per batch.
	brep, err := service.RunLoad(context.Background(), service.LoadConfig{
		BaseURL:   base,
		Mode:      "open",
		Arrival:   "poisson",
		ItemRate:  200, // = the single-run request rate, in items/s
		BatchSize: 8,
		Duration:  3 * time.Second,
		Op:        "plan-batch",
		Specs: []workload.Spec{
			{Family: "uniform", M: 8, N: 32, Seed: 1},
			{Family: "uniform", M: 8, N: 32, Seed: 2},
		},
		Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbatch load: %d batches, %d items, %d item errors, %.1f items/s (offered %.0f)\n",
		brep.Done, brep.ItemsDone, brep.ItemsErrors, brep.ItemThroughput, brep.OfferedItemRate)
	fmt.Printf("per-batch latency: p50=%.2fms p99=%.2fms\n", brep.LatP50*1e3, brep.LatP99*1e3)

	// Traffic shaping and record/replay: a switching (on/off square wave)
	// rate curve with zipf-skewed spec popularity over a 16-spec catalog,
	// recorded to a binary trace — then the exact same arrival sequence
	// replayed at 2× speed. The replay rebuilds every request body from the
	// trace header alone; the shape flags are ignored.
	traceDir, err := os.MkdirTemp("", "suud-trace-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(traceDir)
	tracePath := traceDir + "/run.trace"
	srep, err := service.RunLoad(context.Background(), service.LoadConfig{
		BaseURL:    base,
		Mode:       "open",
		Arrival:    "poisson",
		Curve:      "switching:300:60:1s", // 300 req/s half the time, 60 the other half
		Popularity: "zipf:0.9",            // a few hot specs, a long cold tail
		Duration:   3 * time.Second,
		Op:         "plan",
		Specs:      workload.Catalog("uniform", 8, 32, 16, 50),
		Seed:       3,
		RecordPath: tracePath,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshaped load (%s, %s): issued=%d done=%d over %.1fs issuing + %.2fs drain; recorded %d requests\n",
		srep.Curve, srep.Popularity, srep.Issued, srep.Done, srep.DurationS, srep.DrainS, srep.Recorded)
	rrep, err := service.RunLoad(context.Background(), service.LoadConfig{
		BaseURL:     base,
		ReplayPath:  tracePath,
		ReplaySpeed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay at 2x: issued=%d (same sequence) in %.1fs — measured rate %.0f req/s vs %.0f recorded\n",
		rrep.Issued, rrep.DurationS, rrep.OfferedRate, srep.OfferedRate)

	// Durability: the same planner core over a disk-backed plan store.
	// Plans computed once survive a full restart — close the planner and
	// the store, reopen the same directory, replay the same workload, and
	// every answer comes off the recovered log with zero recomputation.
	storeDir, err := os.MkdirTemp("", "suud-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	durReqs := make([]*service.PlanRequest, 6)
	for i := range durReqs {
		ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 8, N: 32, Seed: 200 + int64(i)})
		if err != nil {
			log.Fatal(err)
		}
		durReqs[i] = &service.PlanRequest{Instance: ins}
	}
	st1, err := store.Open(storeDir, store.DiskConfig{Fsync: store.FsyncAlways})
	if err != nil {
		log.Fatal(err)
	}
	dp1 := service.NewPlanner(service.Config{Workers: 2, QueueDepth: 16, Store: st1})
	for _, req := range durReqs {
		if _, err := dp1.Plan(context.Background(), req); err != nil {
			log.Fatal(err)
		}
	}
	dm1 := dp1.Metrics()
	fmt.Printf("\ndurable store, cold run: %d plans computed, %d records on disk\n",
		dm1.PlansComputed, dm1.StoreEntries)
	dp1.Close()
	if err := st1.Close(); err != nil {
		log.Fatal(err)
	}

	// The "restart": a fresh store over the same directory, a fresh
	// planner with an empty memory tier. Warmup gates readiness on store
	// recovery.
	st2, err := store.Open(storeDir, store.DiskConfig{})
	if err != nil {
		log.Fatal(err)
	}
	dp2 := service.NewPlanner(service.Config{Workers: 2, QueueDepth: 16, Store: st2})
	if err := dp2.Warmup(); err != nil {
		log.Fatal(err)
	}
	for _, req := range durReqs {
		if _, err := dp2.Plan(context.Background(), req); err != nil {
			log.Fatal(err)
		}
	}
	dm2 := dp2.Metrics()
	fmt.Printf("durable store, after restart: %d plans computed, %d disk hits, %d corrupt records dropped\n",
		dm2.PlansComputed, dm2.StoreDiskHits, dm2.StoreCorrupt)
	dp2.Close()
	if err := st2.Close(); err != nil {
		log.Fatal(err)
	}

	// Resilience demo: a deliberately tiny planner (one worker, short
	// queue) under injected 503s, with brownout fallbacks enabled. The
	// retrying client absorbs the injected errors; overload past the
	// brownout threshold is answered with degraded greedy plans instead of
	// 429s.
	tiny := service.NewPlanner(service.Config{
		Workers:           1,
		QueueDepth:        4,
		DegradedPolicy:    service.DegradeIndependent,
		BrownoutThreshold: 0.5,
	})
	inj := faults.New(faults.Config{Seed: 7, ErrorP: 0.3, HTTPMethod: http.MethodPost})
	tsrv := &http.Server{Handler: inj.Wrap(service.NewServer(tiny))}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go tsrv.Serve(tln)
	tbase := "http://" + tln.Addr().String()

	// /readyz is the lifecycle endpoint: 503 until Warmup, 200 while
	// serving, 503 again the moment drain begins (before the listener
	// closes). /healthz stays 200 throughout — liveness, not readiness.
	fmt.Printf("\nreadyz before warmup: %d\n", getStatus(tbase+"/readyz"))
	if err := tiny.Warmup(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("readyz after warmup:  %d\n", getStatus(tbase+"/readyz"))

	rsuu := client.New(client.Config{
		MaxAttempts: 4,
		BaseBackoff: 5 * time.Millisecond,
		Seed:        9,
	})
	var (
		wg                          sync.WaitGroup
		mu                          sync.Mutex
		okFull, okDegraded, retried int
	)
	for i := 0; i < 16; i++ {
		ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 24, N: 192, Seed: 100 + int64(i)})
		if err != nil {
			log.Fatal(err)
		}
		body, _ := json.Marshal(&service.PlanRequest{Instance: ins, DeadlineMS: 5000})
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := rsuu.Do(context.Background(), tbase+"/v1/plan", body)
			if err != nil || r.Status != http.StatusOK {
				return
			}
			var plan service.PlanResponse
			if json.Unmarshal(r.Body, &plan) != nil {
				return
			}
			mu.Lock()
			if plan.Degraded {
				okDegraded++
			} else {
				okFull++
			}
			if r.Attempts > 1 {
				retried++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	cm := rsuu.Snapshot()
	fmt.Printf("\nchaos burst: 16 cold plans → %d ok (%d full, %d degraded fallbacks); %d calls retried (%d retries total)\n",
		okFull+okDegraded, okFull, okDegraded, retried, cm.Retries)
	fmt.Printf("injected by the chaos middleware: %+v\n", inj.Snapshot())

	tiny.BeginDrain()
	fmt.Printf("readyz during drain:  %d\n", getStatus(tbase+"/readyz"))
	tln.Close()
	tiny.Close()

	// Graceful shutdown: stop accepting, drain in-flight work.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Fatal(err)
	}
	planner.Close()
	fmt.Println("\ndrained cleanly")
}

func getStatus(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
