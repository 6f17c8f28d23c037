package load

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// fourSpecs is a body pool whose size is a multiple of two replicas — the
// exact shape that hid the rotation-correlation bug.
func fourSpecs() []workload.Spec {
	return []workload.Spec{
		{Family: "uniform", M: 3, N: 8, Seed: 1},
		{Family: "uniform", M: 3, N: 8, Seed: 2},
		{Family: "uniform", M: 3, N: 8, Seed: 3},
		{Family: "uniform", M: 3, N: 8, Seed: 4},
	}
}

// bodySink is a fake replica that records which distinct request bodies it
// served, so a test can see exactly how specs mapped onto replicas.
type bodySink struct {
	mu     sync.Mutex
	bodies map[string]int
	total  int
	ts     *httptest.Server
}

func newBodySink(t *testing.T, handler func(w http.ResponseWriter, body []byte)) *bodySink {
	t.Helper()
	s := &bodySink{bodies: make(map[string]int)}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method == http.MethodPost {
			// The report's end-of-run /metrics and /version GETs are not
			// load; only ledger the issued requests.
			s.mu.Lock()
			s.bodies[string(body)]++
			s.total++
			s.mu.Unlock()
		}
		if handler != nil {
			handler(w, body)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *bodySink) distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bodies)
}

func (s *bodySink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// TestFleetRotationCoversAllPairs is the regression for the rotation-
// correlation bug: the preferred replica used to be derived from the body
// index, so with round-robin popularity and a spec count divisible by the
// replica count, every spec was pinned to one replica — replica 0 only
// ever saw even specs. Every (spec, preferred-replica) pair must occur,
// and the spread must stay even.
func TestFleetRotationCoversAllPairs(t *testing.T) {
	a := newBodySink(t, nil)
	b := newBodySink(t, nil)
	rep, err := Run(context.Background(), Config{
		URLs:        []string{a.ts.URL, b.ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		Rate:        500,
		Duration:    500 * time.Millisecond,
		Concurrency: 64,
		Op:          "plan",
		Specs:       fourSpecs(),
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("fleet run: %+v", rep)
	}
	// No failures, so every request was served by its preferred replica:
	// the sinks record the preference assignment itself.
	for name, sink := range map[string]*bodySink{"a": a, "b": b} {
		if got := sink.distinct(); got != len(fourSpecs()) {
			t.Fatalf("replica %s saw %d distinct specs, want %d — rotation correlated with body index",
				name, got, len(fourSpecs()))
		}
	}
	// Block-even spread: every block of 2 arrivals covers both replicas,
	// so the split cannot be skewed by more than in-flight jitter.
	ca, cb := a.count(), b.count()
	if diff := ca - cb; diff < -2 || diff > 2 {
		t.Fatalf("uneven replica spread: %d vs %d", ca, cb)
	}
}

// TestThroughputExcludesDrain is the regression for the elapsed-time bug:
// throughput used to divide by (issuing window + drain), so a run whose
// requests complete after the window reported deflated rates. A handler
// that sleeps past the window must yield DurationS ≈ the window, a
// visible DrainS, and Throughput = Done / DurationS.
func TestThroughputExcludesDrain(t *testing.T) {
	slow := newBodySink(t, func(w http.ResponseWriter, _ []byte) {
		time.Sleep(250 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	})
	rep, err := Run(context.Background(), Config{
		URLs:        []string{slow.ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		Rate:        40,
		Duration:    400 * time.Millisecond,
		Concurrency: 64,
		Op:          "plan",
		Specs:       fourSpecs()[:1],
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("slow run: %+v", rep)
	}
	if rep.DurationS < 0.3 || rep.DurationS > 0.8 {
		t.Fatalf("issuing window %.3fs, configured 0.4s", rep.DurationS)
	}
	if rep.DrainS < 0.1 {
		t.Fatalf("drain %.3fs invisible behind a 250ms handler", rep.DrainS)
	}
	want := float64(rep.Done) / rep.DurationS
	if diff := rep.Throughput - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("throughput %.3f, want done/issuing-window = %.3f", rep.Throughput, want)
	}
	deflated := float64(rep.Done) / (rep.DurationS + rep.DrainS)
	if rep.Throughput <= deflated {
		t.Fatalf("throughput %.3f not above drain-deflated %.3f", rep.Throughput, deflated)
	}
}

// TestOrganicInjectedBodyCountsOrganic is the regression for the
// classification bug: an organic 500 whose error message happens to
// contain the word "injected" used to be misfiled as an injected fault.
// Only the X-Suu-Injected header marks injection.
func TestOrganicInjectedBodyCountsOrganic(t *testing.T) {
	organic := newBodySink(t, func(w http.ResponseWriter, _ []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error": "config key sql_injected_guard missing"}`)
	})
	rep, err := Run(context.Background(), Config{
		URLs:        []string{organic.ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		Rate:        200,
		Duration:    200 * time.Millisecond,
		Concurrency: 16,
		Op:          "plan",
		Specs:       fourSpecs()[:1],
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Fatal("no errors from an all-500 server")
	}
	if rep.InjectedErrors != 0 {
		t.Fatalf("%d organic 500s misfiled as injected (body text matched)", rep.InjectedErrors)
	}
	if rep.OrganicServerErrors != rep.Errors {
		t.Fatalf("organic_5xx = %d, errors = %d", rep.OrganicServerErrors, rep.Errors)
	}
}

// TestInjectedComputeFaultMarked drives a real planner whose compute hook
// fails with the typed injected error and pins the whole chain: the typed
// error survives the planner's error path, the HTTP layer mirrors the
// X-Suu-Injected header onto the 500, and the harness ledgers it as
// injected with zero organic 5xx.
func TestInjectedComputeFaultMarked(t *testing.T) {
	ts := newTestServer(t, func(c *service.Config) {
		c.ComputeHook = func() error { return &faults.InjectedError{Cause: "compute error"} }
	})
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "closed",
		Concurrency: 2,
		Duration:    200 * time.Millisecond,
		Op:          "plan",
		Specs:       fourSpecs(),
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Fatal("no errors with an always-failing compute hook")
	}
	if rep.OrganicServerErrors != 0 {
		t.Fatalf("%d injected compute faults ledgered organic — header not mirrored", rep.OrganicServerErrors)
	}
	if rep.InjectedErrors != rep.Errors {
		t.Fatalf("injected = %d, errors = %d", rep.InjectedErrors, rep.Errors)
	}
}

// TestRunLoadShapedZipf drives a real server under a switching curve and
// zipfian popularity: the run completes cleanly, the report carries the
// shape labels, and the offered rate is the curve's mean, not the -rate
// flag.
func TestRunLoadShapedZipf(t *testing.T) {
	ts := newTestServer(t, nil)
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "open",
		Arrival:     "poisson",
		Curve:       "switching:300:100:200ms",
		Popularity:  "zipf:1.1",
		Duration:    600 * time.Millisecond,
		Concurrency: 64,
		Op:          "plan",
		Specs:       fourSpecs(),
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("shaped run: %+v", rep)
	}
	if rep.Curve != "switching:300:100:200ms" || rep.Popularity != "zipf:1.1" {
		t.Fatalf("shape labels: curve=%q popularity=%q", rep.Curve, rep.Popularity)
	}
	// 600ms = 3 half-up/half-down periods: the mean of the square wave.
	if rep.OfferedRate != 200 {
		t.Fatalf("offered rate %g, want the curve mean 200", rep.OfferedRate)
	}
	if rep.Issued != rep.Done+rep.Errors {
		t.Fatalf("ledger does not reconcile: %+v", rep)
	}
}

// TestRecordReplay is the end-to-end pipeline: a recorded run's trace
// re-issues the identical op/spec sequence at 2× speed, both ledgers
// reconcile, and the recording of the replay matches the original
// sequence record for record.
func TestRecordReplay(t *testing.T) {
	ts := newTestServer(t, nil)
	dir := t.TempDir()
	orig, again := dir+"/orig.trace", dir+"/again.trace"

	rep1, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		Curve:       "switching:400:100:200ms",
		Popularity:  "zipf:0.9",
		Duration:    600 * time.Millisecond,
		Concurrency: 64,
		Op:          "plan",
		Specs:       fourSpecs(),
		Seed:        21,
		RecordPath:  orig,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Errors != 0 || rep1.Done == 0 || rep1.RecordErrors != 0 {
		t.Fatalf("recorded run: %+v", rep1)
	}
	if rep1.Recorded != rep1.Issued {
		t.Fatalf("recorded %d of %d issued", rep1.Recorded, rep1.Issued)
	}
	tr1, err := traffic.OpenTrace(orig)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(tr1.Requests)) != rep1.Issued || tr1.Skipped != 0 {
		t.Fatalf("trace holds %d requests (skipped %d), issued %d",
			len(tr1.Requests), tr1.Skipped, rep1.Issued)
	}
	if tr1.Header.Op != "plan" || len(tr1.Header.Specs) != len(fourSpecs()) ||
		tr1.Header.Curve != "switching:400:100:200ms" || tr1.Header.Popularity != "zipf:0.9" {
		t.Fatalf("trace header: %+v", tr1.Header)
	}

	rep2, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		ReplayPath:  orig,
		ReplaySpeed: 2,
		Concurrency: 64,
		RecordPath:  again,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Errors != 0 || rep2.Dropped != 0 {
		t.Fatalf("replay run: %+v", rep2)
	}
	if rep2.Issued != rep1.Issued || rep2.Issued != rep2.Done+rep2.Errors {
		t.Fatalf("replay issued %d (done %d), recording issued %d",
			rep2.Issued, rep2.Done, rep1.Issued)
	}
	if rep2.ReplaySpeed != 2 || rep2.Arrival != "replay" {
		t.Fatalf("replay labels: %+v", rep2)
	}
	// 2× speed: the replay's issuing window is half the original's, give
	// or take scheduling slack on the final arrival.
	if rep2.DurationS > 0.8*rep1.DurationS {
		t.Fatalf("replay window %.3fs not compressed vs original %.3fs",
			rep2.DurationS, rep1.DurationS)
	}
	tr2, err := traffic.OpenTrace(again)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Requests) != len(tr1.Requests) {
		t.Fatalf("replay recorded %d requests, original %d", len(tr2.Requests), len(tr1.Requests))
	}
	for i := range tr1.Requests {
		if tr1.Requests[i].Spec != tr2.Requests[i].Spec || tr1.Requests[i].Op != tr2.Requests[i].Op {
			t.Fatalf("sequence diverged at %d: recorded spec %d, replayed spec %d",
				i, tr1.Requests[i].Spec, tr2.Requests[i].Spec)
		}
		// The replayed schedule is the original compressed 2×.
		want := tr1.Requests[i].Rel / 2
		if got := tr2.Requests[i].Rel; got != want {
			t.Fatalf("schedule at %d: replayed rel %s, want %s", i, got, want)
		}
	}
}

// TestReplayBatchRebuildsBodies replays a plan-batch recording and pins
// that the header alone rebuilds the identical body pool: the item ledger
// of the replay matches the original's per-request item counts.
func TestReplayBatchRebuildsBodies(t *testing.T) {
	ts := newTestServer(t, func(c *service.Config) { c.QueueDepth = 256 })
	dir := t.TempDir()
	path := dir + "/batch.trace"
	cfg := Config{
		URLs:        []string{ts.URL},
		Mode:        "open",
		Arrival:     "fixed",
		Rate:        100,
		BatchSize:   3,
		BatchDist:   "uniform",
		Duration:    400 * time.Millisecond,
		Concurrency: 32,
		Op:          "plan-batch",
		Specs:       fourSpecs(),
		Seed:        5,
		RecordPath:  path,
	}
	rep1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Errors != 0 || rep1.Done == 0 {
		t.Fatalf("batch recording: %+v", rep1)
	}
	rep2, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		ReplayPath:  path,
		ReplaySpeed: 2,
		Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Errors != 0 || rep2.Dropped != 0 {
		t.Fatalf("batch replay: %+v", rep2)
	}
	if rep2.ItemsIssued != rep1.ItemsIssued {
		t.Fatalf("replay issued %d items, recording issued %d — bodies not rebuilt identically",
			rep2.ItemsIssued, rep1.ItemsIssued)
	}
	if rep2.BatchSize != 3 || rep2.BatchDist != "uniform" || rep2.Op != "plan-batch" {
		t.Fatalf("replay did not inherit the recorded shape: %+v", rep2)
	}
}

// TestRecordedOutcomesAndSources checks the per-request metadata a
// summarizer consumes: a traced server yields records whose sources name
// cached/computed, and outcomes are all ok on a clean run.
func TestRecordedOutcomesAndSources(t *testing.T) {
	ts := tracedServer(t, nil)
	path := t.TempDir() + "/traced.trace"
	rep, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Mode:        "closed",
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Op:          "plan",
		Specs:       fourSpecs()[:2],
		Seed:        8,
		RecordPath:  path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Done == 0 {
		t.Fatalf("traced run: %+v", rep)
	}
	tr, err := traffic.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]int)
	for _, r := range tr.Requests {
		if r.Outcome != "ok" {
			t.Fatalf("outcome %q on a clean run: %+v", r.Outcome, r)
		}
		sources[r.Source]++
	}
	if sources["computed"] == 0 || sources["cached"] == 0 {
		t.Fatalf("recorded sources missing cached/computed split: %v", sources)
	}
}
