package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func newTestServer(t *testing.T, extra func(*Config)) (*httptest.Server, *Planner) {
	t.Helper()
	p := smallPlanner(extra)
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	return ts, p
}

// TestHTTPPlanGolden round-trips a fixed request and pins the response
// shape: every field the API contract names, with values cross-checked
// against the library computed directly (the response is "golden" against
// the library, not against a brittle committed byte string).
func TestHTTPPlanGolden(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	req := testInstance(t, "uniform", 4, 8, 42)
	resp, body := postJSON(t, ts, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, field := range []string{"fingerprint", "class", "m", "n", "target", "tstar", "lower_bound", "length", "machines", "cached"} {
		if _, ok := got[field]; !ok {
			t.Errorf("response missing field %q in %s", field, body)
		}
	}
	// Direct library call agrees field by field.
	direct, err := smallPlanner(nil).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got["fingerprint"] != direct.Fingerprint {
		t.Errorf("fingerprint %v vs %v", got["fingerprint"], direct.Fingerprint)
	}
	if got["tstar"].(float64) != direct.TStar {
		t.Errorf("tstar %v vs %v", got["tstar"], direct.TStar)
	}
	if int64(got["length"].(float64)) != direct.Length {
		t.Errorf("length %v vs %v", got["length"], direct.Length)
	}
	if got["class"] != "independent" || got["cached"] != false {
		t.Errorf("class/cached: %v/%v", got["class"], got["cached"])
	}
	// Second POST of the same content: served from cache.
	resp2, body2 := postJSON(t, ts, "/v1/plan", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d", resp2.StatusCode)
	}
	var got2 struct {
		Cached bool    `json:"cached"`
		TStar  float64 `json:"tstar"`
	}
	if err := json.Unmarshal(body2, &got2); err != nil {
		t.Fatal(err)
	}
	if !got2.Cached || got2.TStar != direct.TStar {
		t.Errorf("second response: %s", body2)
	}
}

func TestHTTPEstimateGolden(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	ins := testInstance(t, "uniform", 4, 8, 17).Instance
	resp, body := postJSON(t, ts, "/v1/estimate", &EstimateRequest{
		Instance: ins, Policy: "sem", Trials: 25, Seed: 6,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	direct, err := smallPlanner(nil).Estimate(context.Background(), &EstimateRequest{
		Instance: ins, Policy: "sem", Trials: 25, Seed: 6,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mean != direct.Mean || got.Median != direct.Median || got.Policy != "sem" ||
		got.Trials != 25 || got.Seed != 6 || got.Fingerprint != direct.Fingerprint {
		t.Errorf("estimate over HTTP %+v differs from direct %+v", got, direct)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	ts, p := newTestServer(t, nil)
	ins := testInstance(t, "uniform", 3, 6, 1).Instance

	check := func(name string, resp *http.Response, body []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantCode, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %s", name, body)
		}
	}

	// Malformed JSON.
	resp, err := ts.Client().Post(ts.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check("malformed", resp, body, http.StatusBadRequest)

	// Malformed instance: q outside [0,1] fails model validation.
	resp, err = ts.Client().Post(ts.URL+"/v1/plan", "application/json",
		strings.NewReader(`{"instance":{"m":1,"n":1,"q":[[2.5]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("invalid q", resp, body, http.StatusBadRequest)

	// Missing instance.
	resp, body = postJSON(t, ts, "/v1/plan", &PlanRequest{})
	check("missing instance", resp, body, http.StatusBadRequest)

	// Over-budget trials (MaxTrials is 500 in smallPlanner).
	resp, body = postJSON(t, ts, "/v1/estimate", &EstimateRequest{Instance: ins, Trials: 501})
	check("over budget", resp, body, http.StatusBadRequest)

	// Unknown policy.
	resp, body = postJSON(t, ts, "/v1/estimate", &EstimateRequest{Instance: ins, Policy: "nope"})
	check("unknown policy", resp, body, http.StatusBadRequest)

	// Stream requests validate BEFORE the 200 status line commits: a bad
	// streamed request must be a real 400, not a 200 with an error line.
	resp, body = postJSON(t, ts, "/v1/estimate", &EstimateRequest{Instance: ins, Trials: 501, Stream: true})
	check("over budget streamed", resp, body, http.StatusBadRequest)

	// Oversized body: a real 413 naming the limit, not a generic decode
	// 400 (the limit is lowered so the test does not ship 64 MB).
	srv := NewServer(p)
	srv.maxBody = 128
	bigTS := httptest.NewServer(srv)
	defer bigTS.Close()
	big := `{"instance":{"m":3,"n":6,"q":[` + strings.Repeat("[0.5,0.5,0.5,0.5,0.5,0.5],", 64) + `]}}`
	resp, err = http.Post(bigTS.URL+"/v1/plan", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	check("oversized body", resp, body, http.StatusRequestEntityTooLarge)

	// Wrong method.
	getResp, err := ts.Client().Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: %d", getResp.StatusCode)
	}

	// Queue-full rejection: occupy the workers and the whole line.
	for i := 0; i < p.cfg.Workers; i++ {
		p.slots <- struct{}{}
	}
	p.queued.Add(int64(p.cfg.QueueDepth))
	resp, body = postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 3, 6, 99))
	check("queue full", resp, body, http.StatusTooManyRequests)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	p.queued.Add(-int64(p.cfg.QueueDepth))
	for i := 0; i < p.cfg.Workers; i++ {
		<-p.slots
	}
}

func TestHTTPEstimateStreaming(t *testing.T) {
	ts, _ := newTestServer(t, func(c *Config) { c.ProgressChunk = 5 })
	ins := testInstance(t, "uniform", 3, 6, 23).Instance
	data, _ := json.Marshal(&EstimateRequest{Instance: ins, Trials: 18, Seed: 2, Stream: true})
	resp, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var progress []Progress
	var result *EstimateResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev estimateEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Progress != nil:
			progress = append(progress, *ev.Progress)
		case ev.Result != nil:
			result = ev.Result
		case ev.Error != "":
			t.Fatalf("stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(progress) != 3 { // after 5, 10, 15 of 18
		t.Fatalf("progress lines = %d (%+v)", len(progress), progress)
	}
	if result == nil || result.Trials != 18 {
		t.Fatalf("missing/short final result: %+v", result)
	}
	// A repeat of the same request hits the cache: result only, no
	// progress, same numbers.
	resp2, err := ts.Client().Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var lines []estimateEvent
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev estimateEvent
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 1 || lines[0].Result == nil || !lines[0].Result.Cached {
		t.Fatalf("cached stream = %+v", lines)
	}
	if lines[0].Result.Mean != result.Mean {
		t.Error("cached stream result differs")
	}
}

// TestHTTPPlanBatchGolden round-trips a mixed batch over HTTP and pins the
// response shape: envelope fields, per-item statuses and sources, and
// payloads cross-checked against the single endpoint.
func TestHTTPPlanBatchGolden(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	fresh := testInstance(t, "uniform", 4, 8, 201)
	chain := testInstance(t, "chains", 4, 12, 202)

	resp, body := postJSON(t, ts, "/v1/plan/batch", &BatchPlanRequest{Items: []PlanRequest{
		*fresh, jsonClone(t, fresh), *chain, {},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, field := range []string{"size", "ok", "errors", "cached", "computed", "coalesced", "cost_units", "items"} {
		if _, present := got[field]; !present {
			t.Errorf("response missing field %q in %s", field, body)
		}
	}
	var batch BatchPlanResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Size != 4 || batch.OK != 3 || batch.Errors != 1 ||
		batch.Computed != 2 || batch.Coalesced != 1 {
		t.Fatalf("summary: %+v", batch)
	}
	direct, err := smallPlanner(nil).Plan(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalPlanJSON(t, batch.Items[0].Plan), canonicalPlanJSON(t, direct); got != want {
		t.Errorf("batch payload over HTTP differs from direct library call")
	}
	if batch.Items[3].Status != "error" || batch.Items[3].Error == "" {
		t.Errorf("invalid item: %+v", batch.Items[3])
	}

	// Error paths: malformed JSON and an oversized batch are envelope-level
	// 400s (there are no items to isolate).
	r2, err := ts.Client().Post(ts.URL+"/v1/plan/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: %d", r2.StatusCode)
	}
	resp, body = postJSON(t, ts, "/v1/plan/batch", &BatchPlanRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d (%s)", resp.StatusCode, body)
	}
}

// TestHTTPMetricsBatchCounters pins the /metrics batch accounting
// contract: the documented batch counters exist, are monotone across
// documents, reconcile exactly within one document
// (batch_items = cached + computed + coalesced + errors — they are
// snapshotted under one lock), and per-item batch accounting keeps
// cache_hit_rate ≤ 1.
func TestHTTPMetricsBatchCounters(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	a := testInstance(t, "uniform", 3, 6, 301)
	b := testInstance(t, "uniform", 3, 6, 302)

	fetch := func() MetricsSnapshot {
		t.Helper()
		var snap MetricsSnapshot
		getJSON(t, ts, "/metrics", &snap)
		return snap.check(t)
	}

	postJSON(t, ts, "/v1/plan/batch", &BatchPlanRequest{Items: []PlanRequest{*a, jsonClone(t, a), *b}})
	doc1 := fetch()
	if doc1.Batches != 1 || doc1.BatchItems != 3 || doc1.BatchComputed != 2 || doc1.BatchShared != 1 {
		t.Fatalf("doc1: %+v", doc1)
	}
	if doc1.BatchSizes.Count != 1 || doc1.BatchLatency.Count != 1 || doc1.BatchLatency.P99 <= 0 {
		t.Fatalf("doc1 batch histograms: %+v / %+v", doc1.BatchSizes, doc1.BatchLatency)
	}

	// A second batch: all hits plus one per-item error.
	postJSON(t, ts, "/v1/plan/batch", &BatchPlanRequest{Items: []PlanRequest{jsonClone(t, b), {}}})
	doc2 := fetch()
	if doc2.Batches != 2 || doc2.BatchItems != 5 || doc2.BatchCached != doc1.BatchCached+1 || doc2.BatchErrors != doc1.BatchErrors+1 {
		t.Fatalf("doc2: %+v", doc2)
	}
	// Monotonicity, counter by counter.
	type pair struct {
		name string
		a, b uint64
	}
	for _, c := range []pair{
		{"batches", doc1.Batches, doc2.Batches},
		{"batch_items", doc1.BatchItems, doc2.BatchItems},
		{"batch_items_cached", doc1.BatchCached, doc2.BatchCached},
		{"batch_items_computed", doc1.BatchComputed, doc2.BatchComputed},
		{"batch_items_coalesced", doc1.BatchShared, doc2.BatchShared},
		{"batch_item_errors", doc1.BatchErrors, doc2.BatchErrors},
		{"cache_hits", doc1.CacheHits, doc2.CacheHits},
		{"cache_misses", doc1.CacheMisses, doc2.CacheMisses},
		{"coalesced", doc1.Coalesced, doc2.Coalesced},
	} {
		if c.b < c.a {
			t.Errorf("%s went backwards: %d → %d", c.name, c.a, c.b)
		}
	}
}

// check asserts the invariants every /metrics document must satisfy.
func (sn MetricsSnapshot) check(t *testing.T) MetricsSnapshot {
	t.Helper()
	if sn.BatchItems != sn.BatchCached+sn.BatchComputed+sn.BatchShared+sn.BatchErrors {
		t.Fatalf("batch items do not reconcile within one document: %+v", sn)
	}
	if sn.CacheHitRate < 0 || sn.CacheHitRate > 1 {
		t.Fatalf("cache_hit_rate %v outside [0, 1]: %+v", sn.CacheHitRate, sn)
	}
	if sn.Coalesced > sn.CacheMisses {
		t.Fatalf("coalesced %d > misses %d within one document", sn.Coalesced, sn.CacheMisses)
	}
	return sn
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 3, 6, 55))
	postJSON(t, ts, "/v1/plan", testInstance(t, "uniform", 3, 6, 55))

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthBody
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hb.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hb)
	}

	var snap MetricsSnapshot
	getJSON(t, ts, "/metrics", &snap)
	if snap.Plans != 2 || snap.CacheHits != 1 || snap.CacheMisses == 0 {
		t.Fatalf("metrics: %+v", snap)
	}
	if snap.PlanLatency.Count != 2 || snap.PlanLatency.P99 <= 0 {
		t.Fatalf("plan latency: %+v", snap.PlanLatency)
	}
	if snap.CacheHitRate <= 0 || snap.CacheHitRate >= 1 {
		t.Fatalf("hit rate: %v", snap.CacheHitRate)
	}
}

// TestHTTPGracefulShutdown drives the real http.Server shutdown path: an
// in-flight estimate must complete with a full 200 response while new
// work is turned away.
func TestHTTPGracefulShutdown(t *testing.T) {
	p := smallPlanner(nil)
	gp := &gatePolicy{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	p.policies["gate"] = func() sim.Policy { return gp }
	srv := &http.Server{Handler: NewServer(p)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	ins := testInstance(t, "uniform", 3, 5, 77).Instance
	data, _ := json.Marshal(&EstimateRequest{Instance: ins, Policy: "gate", Trials: 2, Seed: 1})
	type result struct {
		code int
		body EstimateResponse
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/estimate", "application/json", bytes.NewReader(data))
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var er EstimateResponse
		decErr := json.NewDecoder(resp.Body).Decode(&er)
		resCh <- result{code: resp.StatusCode, body: er, err: decErr}
	}()
	<-gp.entered // request is mid-computation

	shutdownDone := make(chan error, 1)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(shutCtx) }()

	// The listener closes promptly: new connections are refused while the
	// in-flight request keeps computing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := http.Post(base+"/healthz", "application/json", nil)
		if err != nil {
			break // refused: shutdown has closed the listener
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}

	close(gp.gate)
	res := <-resCh
	if res.err != nil || res.code != http.StatusOK {
		t.Fatalf("in-flight request: code=%d err=%v", res.code, res.err)
	}
	if res.body.Trials != 2 {
		t.Fatalf("in-flight response truncated: %+v", res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	p.Close() // planner drains too (nothing left in flight)
	if _, err := p.Plan(context.Background(), testInstance(t, "uniform", 3, 5, 78)); err == nil {
		t.Fatal("planner accepted work after Close")
	}
	_ = fmt.Sprintf("%v", p.Metrics()) // String() smoke
}
