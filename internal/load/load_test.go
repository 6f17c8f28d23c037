package load

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// newTestServer serves a small real planner over a loopback listener for
// the length of the test.
func newTestServer(t *testing.T, extra func(*service.Config)) *httptest.Server {
	t.Helper()
	cfg := service.Config{Workers: 2, QueueDepth: 8,
		MaxTrials: 500, DefaultTrials: 20, TrialWorkers: 2, ProgressChunk: 8}
	if extra != nil {
		extra(&cfg)
	}
	p := service.NewPlanner(cfg)
	ts := httptest.NewServer(service.NewServer(p))
	t.Cleanup(func() {
		ts.Close()
		p.Close()
	})
	return ts
}

// tracedServer is newTestServer with every request traced.
func tracedServer(t *testing.T, extra func(*service.Config)) *httptest.Server {
	t.Helper()
	return newTestServer(t, func(cfg *service.Config) {
		cfg.TraceSample = 1
		cfg.TraceRing = 64
		cfg.TraceSlowN = 8
		if extra != nil {
			extra(cfg)
		}
	})
}

func TestRunLoadValidation(t *testing.T) {
	ctx := context.Background()
	specs := []workload.Spec{{Family: "uniform", M: 2, N: 4, Seed: 1}}
	x := []string{"http://x"}
	cases := []Config{
		{}, // no URL
		{URLs: []string{}, Specs: specs, Rate: 10},         // empty URL list
		{URLs: []string{"", "  "}, Specs: specs, Rate: 10}, // only blank URLs
		{URLs: x}, // no specs
		{URLs: x, Specs: specs, Mode: "sideways"},
		{URLs: x, Specs: specs, Arrival: "bursty"},
		{URLs: x, Specs: specs, Mode: "open", Rate: 0},
		{URLs: x, Specs: specs, Mode: "closed", Op: "delete"},
		{URLs: x, Specs: specs, Op: "plan", BatchSize: 4},                                           // batch knobs without batch op
		{URLs: x, Specs: specs, Op: "plan-batch", BatchDist: "zipf", Rate: 10},                      // unknown distribution
		{URLs: x, Specs: specs, Op: "plan-batch", Mode: "closed", ItemRate: 10, Rate: 10},           // item pacing is open-mode
		{URLs: x, Specs: specs, Mode: "open", Rate: 10, Curve: "sawtooth:1:2:3s"},                   // unknown curve
		{URLs: x, Specs: specs, Mode: "closed", Curve: "switching:10:1:1s"},                         // shaped curve needs open mode
		{URLs: x, Specs: specs, Mode: "open", Rate: 10, Popularity: "pareto:1"},                     // unknown popularity
		{URLs: x, Specs: specs, Op: "plan-batch", ItemRate: 10, Rate: 10, Curve: "linstep:1:20:1s"}, // item pacing needs a constant curve
		{URLs: x, Specs: specs, ReplayPath: "/nonexistent/run.trace"},                               // unreadable trace
		{URLs: x, Specs: specs, ReplayPath: "/tmp/run.trace", RecordPath: "/tmp/run.trace"},         // record over the replay source
	}
	for i, cfg := range cases {
		if _, err := Run(ctx, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

// TestRunLoadOpenLoop is the in-process end-to-end smoke: suud's handler
// under a real HTTP listener, driven by the open-loop harness at a low
// rate, must finish with zero errors, nonzero throughput, p99 recorded,
// and a warm cache (the two specs repeat across arrivals).
func TestRunLoadOpenLoop(t *testing.T) {
	ts := newTestServer(t, nil)
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "open",
		Arrival:     "poisson",
		Rate:        150,
		Duration:    700 * time.Millisecond,
		Concurrency: 32,
		Op:          "plan",
		Specs: []workload.Spec{
			{Family: "uniform", M: 4, N: 16, Seed: 1},
			{Family: "uniform", M: 4, N: 16, Seed: 2},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors = %d of %d issued", rep.Errors, rep.Issued)
	}
	if rep.Done == 0 || rep.Throughput <= 0 {
		t.Fatalf("no completed requests: %+v", rep)
	}
	// After the drain every issued request resolved one way or the other;
	// dropped arrivals never count as issued.
	if rep.Issued != rep.Done+rep.Errors {
		t.Fatalf("issued=%d does not reconcile with done=%d + errors=%d (dropped=%d)",
			rep.Issued, rep.Done, rep.Errors, rep.Dropped)
	}
	if rep.LatP99 <= 0 || rep.LatP99 < rep.LatP50 {
		t.Fatalf("latency quantiles broken: p50=%g p99=%g", rep.LatP50, rep.LatP99)
	}
	if rep.ServerMetrics == nil {
		t.Fatal("server metrics not fetched")
	}
	if rep.ServerMetrics.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %g on repeated instances", rep.ServerMetrics.CacheHitRate)
	}
	if rep.Latencies.N() != rep.Done {
		t.Fatalf("histogram n=%d, done=%d", rep.Latencies.N(), rep.Done)
	}
}

// TestRunLoadBatchMode drives plan-batch end to end at an item-paced open
// loop: uniform batch sizes, zero errors, and an item ledger that
// reconciles exactly (items_issued = items_done + items_errors) with the
// request ledger and the server's own batch counters.
func TestRunLoadBatchMode(t *testing.T) {
	ts := newTestServer(t, func(c *service.Config) { c.QueueDepth = 256 })
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		ItemRate:    400,
		BatchSize:   4,
		BatchDist:   "uniform",
		Duration:    700 * time.Millisecond,
		Concurrency: 32,
		Op:          "plan-batch",
		Specs: []workload.Spec{
			{Family: "uniform", M: 4, N: 16, Seed: 1},
			{Family: "uniform", M: 4, N: 16, Seed: 2},
		},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.ItemsErrors != 0 || rep.Done == 0 {
		t.Fatalf("batch load: %+v", rep)
	}
	if rep.OfferedRate != 100 || rep.OfferedItemRate != 400 { // 400 items/s ÷ size 4
		t.Fatalf("pacing: offered=%g offered_items=%g", rep.OfferedRate, rep.OfferedItemRate)
	}
	if rep.Issued != rep.Done+rep.Errors || rep.ItemsIssued != rep.ItemsDone+rep.ItemsErrors {
		t.Fatalf("ledgers do not reconcile: %+v", rep)
	}
	if rep.ItemsDone <= rep.Done { // uniform sizes on [1,7] mean >1 item/request
		t.Fatalf("items_done=%d not above done=%d", rep.ItemsDone, rep.Done)
	}
	if rep.ItemThroughput <= rep.Throughput {
		t.Fatalf("item throughput %g not above request throughput %g", rep.ItemThroughput, rep.Throughput)
	}
	if rep.BatchSize != 4 || rep.BatchDist != "uniform" || rep.Op != "plan-batch" {
		t.Fatalf("labels: %+v", rep)
	}
	sm := rep.ServerMetrics
	if sm == nil {
		t.Fatal("server metrics not fetched")
	}
	if sm.Batches != rep.Done || sm.BatchItems != rep.ItemsDone {
		t.Fatalf("server sees %d batches / %d items; client did %d / %d",
			sm.Batches, sm.BatchItems, rep.Done, rep.ItemsDone)
	}
	if sm.BatchItems != sm.BatchCached+sm.BatchComputed+sm.BatchShared+sm.BatchErrors {
		t.Fatalf("server batch accounting does not reconcile: %+v", sm)
	}
	if sm.CacheHitRate <= 0 || sm.CacheHitRate > 1 {
		t.Fatalf("hit rate %g", sm.CacheHitRate)
	}
	if sm.BatchSizes.Mean <= 1 || sm.BatchLatency.P99 <= 0 {
		t.Fatalf("batch histograms: %+v / %+v", sm.BatchSizes, sm.BatchLatency)
	}
}

func TestRunLoadClosedLoop(t *testing.T) {
	ts := newTestServer(t, nil)
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "closed",
		Concurrency: 4,
		Duration:    400 * time.Millisecond,
		Op:          "estimate",
		Trials:      10,
		Specs:       []workload.Spec{{Family: "uniform", M: 3, N: 8, Seed: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("closed loop: %+v", rep)
	}
	if rep.Mode != "closed" || rep.Op != "estimate" {
		t.Fatalf("report labels: %+v", rep)
	}
}

// TestRunLoadTraceAttribution drives a fully sampled server and pins the
// client-side attribution ledger: every completed request parsed into a
// per-source stage table, sources split cached from computed, and server
// time never exceeds client-observed time. The server's build info rides
// along.
func TestRunLoadTraceAttribution(t *testing.T) {
	ts := tracedServer(t, nil)
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "closed",
		Duration:    400 * time.Millisecond,
		Concurrency: 4,
		Op:          "plan",
		Specs: []workload.Spec{
			{Family: "uniform", M: 4, N: 12, Seed: 1},
			{Family: "uniform", M: 4, N: 12, Seed: 2},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("done=%d errors=%d", rep.Done, rep.Errors)
	}
	if rep.TracedResponses != rep.Done {
		t.Fatalf("traced %d of %d completed requests at sample=1", rep.TracedResponses, rep.Done)
	}
	if rep.TracedBySource["computed"] == 0 || rep.TracedBySource["cached"] == 0 {
		t.Fatalf("source split missing cached or computed: %v", rep.TracedBySource)
	}
	var n uint64
	for _, c := range rep.TracedBySource {
		n += c
	}
	if n != rep.TracedResponses {
		t.Fatalf("by-source counts %v sum to %d, traced %d", rep.TracedBySource, n, rep.TracedResponses)
	}
	comp := rep.ServerStageSeconds["computed"]
	if comp["solve"] <= 0 || comp["encode"] <= 0 {
		t.Fatalf("computed stage table missing solve/encode: %v", comp)
	}
	if cached := rep.ServerStageSeconds["cached"]; cached["solve"] != 0 {
		t.Fatalf("cached requests charged solve time: %v", cached)
	}
	totalServer := 0.0
	for _, s := range rep.ServerTotalSeconds {
		totalServer += s
	}
	clientTotal := rep.LatMean * float64(rep.Done)
	if totalServer <= 0 || totalServer > clientTotal*1.05 {
		t.Fatalf("server seconds %.6f vs client seconds %.6f", totalServer, clientTotal)
	}
	if rep.ServerVersion == nil || rep.ServerVersion.GoVersion == "" {
		t.Fatal("server version not fetched")
	}
}
