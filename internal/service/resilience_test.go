package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lp"
	"repro/internal/sched"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestBrownoutDegradesUnderPressure: past the pressure threshold an
// eligible plan request gets the LP-free fallback — marked degraded, no
// certificate, never cached — and once pressure clears the same request
// computes the real plan from scratch.
func TestBrownoutDegradesUnderPressure(t *testing.T) {
	p := smallPlanner(func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.DegradedPolicy = DegradeIndependent
		c.BrownoutThreshold = 0.5
	})
	defer p.Close()
	req := testInstance(t, "uniform", 4, 8, 101)

	p.queued.Add(2) // pressure 2/4 = threshold
	resp, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("expected a degraded fallback under pressure")
	}
	if resp.TStar != 0 || resp.LowerBound != 0 {
		t.Errorf("degraded plan must carry no certificate, got tstar=%v lower=%v", resp.TStar, resp.LowerBound)
	}
	if resp.Length <= 0 || len(resp.Machines) != req.Instance.M {
		t.Errorf("degraded plan is not a schedule: length=%d machines=%d", resp.Length, len(resp.Machines))
	}
	key := requestKey{fp: sched.FingerprintInstance(req.Instance), kind: kindPlan, target: 0.5}
	if _, ok := p.memGet(key); ok {
		t.Error("degraded plan must never enter the memory tier")
	}
	if got := p.Metrics().Degraded; got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	p.queued.Add(-2) // storm over
	full, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Cached || full.TStar <= 0 {
		t.Errorf("post-storm plan should be a fresh full computation, got %+v", full)
	}
}

// TestOverloadPolicyGates pins the admission-failure net: a full line
// rejects with 429 under DegradeNever, serves the fallback under
// DegradeIndependent — but only for independent instances; chains still
// reject because their fallback is not policy-eligible.
func TestOverloadPolicyGates(t *testing.T) {
	cases := []struct {
		name, policy, family string
		wantDegraded         bool
	}{
		{"reject-policy", DegradeNever, "uniform", false},
		{"independent-eligible", DegradeIndependent, "uniform", true},
		{"chains-not-eligible", DegradeIndependent, "chains", false},
		{"all-covers-chains", DegradeAll, "chains", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := smallPlanner(func(c *Config) {
				c.Workers = 1
				c.QueueDepth = 1
				c.DegradedPolicy = tc.policy
			})
			p.slots <- struct{}{} // the only worker is busy
			p.queued.Add(1)       // and the line is full
			req := testInstance(t, tc.family, 4, 8, 7)
			resp, err := p.Plan(context.Background(), req)
			if tc.wantDegraded {
				if err != nil {
					t.Fatalf("want a degraded fallback, got error %v", err)
				}
				if !resp.Degraded {
					t.Fatalf("want degraded, got %+v", resp)
				}
			} else {
				if !errors.Is(err, ErrOverloaded) {
					t.Fatalf("want ErrOverloaded, got resp=%v err=%v", resp, err)
				}
			}
			p.queued.Add(-1)
			<-p.slots
			p.Close()
		})
	}
}

// TestAdaptiveRetryAfter: the 429 hint is queued units × the EWMA-priced
// per-unit compute cost ÷ workers, clamped to [1s, 30s], and reaches the
// client via the Retry-After header.
func TestAdaptiveRetryAfter(t *testing.T) {
	p := smallPlanner(func(c *Config) { c.Workers = 1 })
	defer p.Close()
	if got := p.retryAfter(); got != time.Second {
		t.Fatalf("unpriced retryAfter = %v, want the 1s floor", got)
	}

	p.observeUnitCost(1, 2*time.Second) // seeds the EWMA at 2s/unit
	p.queued.Add(4)
	defer p.queued.Add(-4)
	if got := p.retryAfter(); got != 8*time.Second {
		t.Fatalf("retryAfter = %v, want 8s (4 units × 2s ÷ 1 worker)", got)
	}

	rec := httptest.NewRecorder()
	writeError(rec, p.overloaded())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "8" {
		t.Errorf("Retry-After %q, want 8", got)
	}

	// A plain ErrOverloaded (no overloadError wrapper) keeps the old 1s.
	rec = httptest.NewRecorder()
	writeError(rec, ErrOverloaded)
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("plain-overload Retry-After %q, want 1", got)
	}

	// Heavy backlogs clamp at 30s, and /metrics surfaces the live hint.
	p.observeUnitCost(1, 100*time.Second)
	if got := p.retryAfter(); got != 30*time.Second {
		t.Errorf("retryAfter = %v, want the 30s clamp", got)
	}
	if got := p.Metrics().RetryAfterS; got != 30 {
		t.Errorf("metrics retry_after_hint_s = %v, want 30", got)
	}
}

// TestDeadlinePropagation: a plan whose client deadline expires while the
// pool is busy gets a 408, the stranded computation is abandoned at its
// slot-wait checkpoint, and the queue charge is refunded.
func TestDeadlinePropagation(t *testing.T) {
	ts, p := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueDepth = 8 })
	p.slots <- struct{}{} // the only worker stays busy for the whole test

	req := testInstance(t, "uniform", 4, 8, 55)
	req.DeadlineMS = 60
	resp, body := postJSON(t, ts, "/v1/plan", req)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d (%s), want 408", resp.StatusCode, body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for p.Metrics().Abandoned != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned = %d, want 1", p.Metrics().Abandoned)
		}
		time.Sleep(time.Millisecond)
	}
	if q := p.queued.Load(); q != 0 {
		t.Errorf("queued = %d after abandonment, want 0 (charge refunded)", q)
	}
	key := requestKey{fp: sched.FingerprintInstance(req.Instance), kind: kindPlan, target: 0.5}
	if _, ok := p.memGet(key); ok {
		t.Error("abandoned computation must not land in the cache")
	}
	<-p.slots
	p.Close()
}

// TestRetriesObserved: the server meters X-Suu-Attempt ≥ 2 as a retry;
// first attempts do not count.
func TestRetriesObserved(t *testing.T) {
	ts, p := newTestServer(t, nil)
	req := testInstance(t, "uniform", 4, 8, 3)
	for _, attempt := range []int{1, 2, 3} {
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan", strings.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		hreq.Header.Set("X-Suu-Attempt", strconv.Itoa(attempt))
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := p.Metrics().RetriesSeen; got != 2 {
		t.Errorf("retries_observed = %d, want 2 (attempts 2 and 3)", got)
	}
}

// TestReadyzLifecycle: /readyz is 503 until Warmup, 200 while serving,
// and 503 again once drain begins — while /healthz stays 200 (liveness).
func TestReadyzLifecycle(t *testing.T) {
	ts, p := newTestServer(t, nil)
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Status string `json:"status"`
		}
		_ = jsonDecode(resp, &body)
		return resp.StatusCode, body.Status
	}

	if code, status := get("/readyz"); code != http.StatusServiceUnavailable || status != "not-ready" {
		t.Fatalf("pre-warmup readyz = %d %q, want 503 not-ready", code, status)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("pre-warmup healthz should be 200 (alive), got %d", code)
	}
	if err := p.Warmup(); err != nil {
		t.Fatal(err)
	}
	if code, status := get("/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("post-warmup readyz = %d %q, want 200 ready", code, status)
	}
	p.BeginDrain()
	if code, status := get("/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 draining", code, status)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz must stay 200 during drain (BeginDrain refuses nothing), got %d", code)
	}
	// BeginDrain flips routing, not serving: requests still complete.
	if resp, body := postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 4, 8, 9)); resp.StatusCode != http.StatusOK {
		t.Errorf("plan during drain = %d (%s), want 200", resp.StatusCode, body)
	}
	p.Close()
}

// TestUnsolvableMapsTo422: the typed LP bailout is a semantic rejection of
// the instance, not a server bug.
func TestUnsolvableMapsTo422(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("computing plan: %w", lp.ErrUnsolvable))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unsolvable") {
		t.Errorf("body should name the cause, got %s", rec.Body.String())
	}
}

// TestBatchBrownoutDegraded: under pressure a batch's eligible miss groups
// take the fallback — tagged per item, counted in the envelope and in
// /metrics, where the five-way item ledger still reconciles.
func TestBatchBrownoutDegraded(t *testing.T) {
	p := smallPlanner(func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 4
		c.DegradedPolicy = DegradeIndependent
		c.BrownoutThreshold = 0.5
	})
	defer p.Close()
	a := testInstance(t, "uniform", 4, 8, 201)
	b := testInstance(t, "uniform", 4, 8, 202)

	p.queued.Add(2)
	resp, err := p.PlanBatch(context.Background(), &BatchPlanRequest{
		Items: []PlanRequest{*a, *a, *b},
	})
	p.queued.Add(-2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != 3 || resp.OK != 3 || resp.Errors != 0 {
		t.Fatalf("envelope degraded=%d ok=%d errors=%d, want 3/3/0", resp.Degraded, resp.OK, resp.Errors)
	}
	if resp.CostUnits != 0 {
		t.Errorf("degraded fallbacks are free, cost_units = %d", resp.CostUnits)
	}
	for i, item := range resp.Items {
		if item.Source != sourceDegraded || !item.Plan.Degraded {
			t.Errorf("item %d: source=%q degraded=%v, want degraded fallback", i, item.Source, item.Plan.Degraded)
		}
	}
	snap := p.Metrics()
	if snap.BatchDegraded != 3 {
		t.Errorf("batch_items_degraded = %d, want 3", snap.BatchDegraded)
	}
	if sum := snap.BatchCached + snap.BatchComputed + snap.BatchShared + snap.BatchDegraded + snap.BatchErrors; sum != snap.BatchItems {
		t.Errorf("batch item ledger does not reconcile: %d buckets vs %d items", sum, snap.BatchItems)
	}
}

// TestShutdownUnderFire is the drain torture test: a chaos ComputeHook
// errors and panics through a burst of concurrent cold requests, every
// accepted request still reaches a terminal response, drain refuses
// stragglers with 503, the flight table empties, and no goroutines leak.
func TestShutdownUnderFire(t *testing.T) {
	var hookCalls atomic.Uint64
	p := NewPlanner(Config{
		Workers: 2, QueueDepth: 64,
		ComputeHook: func() error {
			switch n := hookCalls.Add(1); {
			case n%5 == 0:
				panic("injected chaos panic")
			case n%3 == 0:
				return errors.New("injected chaos error")
			}
			return nil
		},
	})
	ts := httptest.NewServer(NewServer(p))
	before := runtime.NumGoroutine()

	const requests = 40
	statuses := make([]int, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		req := testInstance(t, "uniform", 4, 8, 1000+int64(i)) // all cold, all distinct
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts, "/v1/plan", req)
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	var ok, failed int
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusInternalServerError:
			failed++ // hook error or recovered panic, isolated to its callers
		default:
			t.Errorf("request %d: status %d, want 200 or 500", i, code)
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("burst should see both outcomes under chaos: ok=%d failed=%d", ok, failed)
	}

	ts.Close()
	p.Close()
	if _, err := p.Plan(context.Background(), testInstance(t, "uniform", 4, 8, 9999)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-close plan: err = %v, want ErrShuttingDown", err)
	}
	p.flight.mu.Lock()
	inFlight := len(p.flight.m)
	p.flight.mu.Unlock()
	if inFlight != 0 {
		t.Errorf("flight table holds %d entries after Close, want 0", inFlight)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the burst, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWriteErrorInjectedHeader pins the unit seam: a typed injected error
// gets the header, an organic error whose text merely says "injected"
// does not.
func TestWriteErrorInjectedHeader(t *testing.T) {
	rr := httptest.NewRecorder()
	writeError(rr, fmt.Errorf("wrapping: %w", &faults.InjectedError{Cause: "compute error"}))
	if rr.Code != http.StatusInternalServerError || rr.Header().Get("X-Suu-Injected") == "" {
		t.Fatalf("typed injected error: status %d, header %q", rr.Code, rr.Header().Get("X-Suu-Injected"))
	}
	rr = httptest.NewRecorder()
	writeError(rr, fmt.Errorf("organic failure mentioning injected"))
	if rr.Header().Get("X-Suu-Injected") != "" {
		t.Fatal("organic error marked injected on body text")
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("error body: %s", rr.Body.String())
	}
}
