package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// testFrame builds a frame the way the planner's cold-encode path does:
// one json.Marshal of the canonical (flags-false) response.
func testFrame(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameRoundTripAcrossShapes is the frame≡struct property: for every
// scenario shape the planner accepts, the stored byte frame decodes back
// to exactly the struct the planner computed, and the frame is
// byte-identical to the canonical encoding of that struct. Shapes the
// planner rejects (forest, layered precedence) must reject identically
// through the serving path.
func TestFrameRoundTripAcrossShapes(t *testing.T) {
	p := propPlanner()
	defer p.Close()
	n := propScenarios(t) / 4
	for si, shape := range scenario.Shapes {
		g := scenario.New(8800 + int64(si))
		for i := 0; i < n; i++ {
			ins, err := g.Instance(shape)
			if err != nil {
				t.Fatal(err)
			}
			req := &PlanRequest{Instance: ins}
			sv, err := p.planServe(context.Background(), req, nil)
			if err != nil {
				// The serving path must reject exactly what the library
				// rejects — nothing shape-specific may leak in.
				if _, lerr := p.Plan(context.Background(), req); lerr == nil || lerr.Error() != err.Error() {
					t.Fatalf("%s/%d: planServe err %q, Plan err %v", shape, i, err, lerr)
				}
				continue
			}
			ins, target, class, err := p.validatePlan(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.computePlan(ins, sched.FingerprintInstance(ins), target, class, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got PlanResponse
			if err := json.Unmarshal(sv.frame, &got); err != nil {
				t.Fatalf("%s/%d: frame does not decode: %v", shape, i, err)
			}
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("%s/%d: decoded frame differs from planner struct", shape, i)
			}
			canon, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, sv.frame) {
				t.Fatalf("%s/%d: frame is not the canonical encoding\nframe: %s\ncanon: %s", shape, i, sv.frame, canon)
			}
			if !want.Degraded && sv.splice < 0 {
				t.Fatalf("%s/%d: canonical frame not spliceable", shape, i)
			}
		}
	}
}

// TestConcurrentHitsShareFrame pins the zero-copy claim under -race:
// every concurrent cache hit serves from the same backing array, splicing
// never mutates it, and the served bytes are exactly prefix+spliced-tail.
func TestConcurrentHitsShareFrame(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	req := testInstance(t, "uniform", 4, 12, 99)
	if _, err := p.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	first, err := p.planServe(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.source != sourceCached {
		t.Fatal("second serve of the same request was not a cache hit")
	}
	frame := first.frame
	sum := sha256.Sum256(frame)
	wantTail := append(append([]byte{}, frame[:first.splice]...), `"cached":true}`...)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for i := 0; i < 50; i++ {
				sv, err := p.planServe(context.Background(), req, nil)
				if err != nil {
					errs <- err
					return
				}
				if &sv.frame[0] != &frame[0] {
					errs <- fmt.Errorf("hit served from a copied frame")
					return
				}
				buf.Reset()
				appendServed(buf, sv)
				if !bytes.Equal(buf.Bytes(), wantTail) {
					errs <- fmt.Errorf("spliced payload mismatch: %s", buf.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if sha256.Sum256(frame) != sum {
		t.Fatal("shared frame bytes mutated by concurrent serving")
	}
}

// TestHTTPContentLength pins sized (non-chunked) writes on the single-plan
// endpoint and on error responses: the Content-Length header is present
// and exact, so proxies can cache and clients can preallocate.
func TestHTTPContentLength(t *testing.T) {
	ts, _ := newTestServer(t, nil)
	req := testInstance(t, "uniform", 3, 9, 5)

	for pass, wantCached := range []bool{false, true} {
		resp, body := postJSON(t, ts, "/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d: %s", pass, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("pass %d: chunked response: %v", pass, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("pass %d: Content-Length %d, body %d bytes", pass, resp.ContentLength, len(body))
		}
		var got PlanResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cached != wantCached {
			t.Fatalf("pass %d: cached=%v, want %v", pass, got.Cached, wantCached)
		}
	}

	resp, body := postJSON(t, ts, "/v1/plan", &PlanRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request: status %d", resp.StatusCode)
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("error response chunked: %v", resp.TransferEncoding)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("error Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
}

// TestMetricsZeroCopyLedger drives one cold encode and one spliced hit
// through HTTP and checks the serving ledger reconciles: both payload
// byte buckets filled, the encode histogram populated, and exactly as
// many splices as cache/coalesced serves.
func TestMetricsZeroCopyLedger(t *testing.T) {
	ts, p := newTestServer(t, nil)
	req := testInstance(t, "uniform", 3, 8, 17)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts, "/v1/plan", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	httpResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	for _, key := range []string{"payload_bytes_served", "encode_ns", "frames_spliced", "cold_encodes"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("/metrics missing %q", key)
		}
	}

	snap := p.Metrics()
	if snap.ColdEncodes < 1 {
		t.Fatalf("cold_encodes = %d, want >= 1", snap.ColdEncodes)
	}
	if snap.EncodeNS.Count < 1 {
		t.Fatalf("encode_ns count = %d, want >= 1", snap.EncodeNS.Count)
	}
	if snap.PayloadBytes.ColdEncode == 0 || snap.PayloadBytes.EncodedCache == 0 {
		t.Fatalf("payload bytes not split: cold=%d cache=%d",
			snap.PayloadBytes.ColdEncode, snap.PayloadBytes.EncodedCache)
	}
	if snap.FramesSpliced != snap.CacheHits+snap.Coalesced {
		t.Fatalf("frames_spliced=%d does not reconcile with hits=%d + coalesced=%d",
			snap.FramesSpliced, snap.CacheHits, snap.Coalesced)
	}
}

// TestStoredEnvelopeKeepsFrameBytes pins the store tier's half of the
// byte-stability contract: the frame that goes into a stored envelope
// comes back out byte-identical, and the decoded struct matches.
func TestStoredEnvelopeKeepsFrameBytes(t *testing.T) {
	want := &PlanResponse{Fingerprint: "abc", Class: "independent", M: 2, N: 4, Length: 4, TStar: 2.5}
	frame := testFrame(t, want)
	b, err := encodeStored(kindPlan, frame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStored(kindPlan, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Fatalf("store round-trip changed frame bytes\nin:  %s\nout: %s", frame, got)
	}
	var gotResp PlanResponse
	if err := json.Unmarshal(got, &gotResp); err != nil || !reflect.DeepEqual(&gotResp, want) {
		t.Fatalf("store round-trip changed decoded struct: %+v (%v)", gotResp, err)
	}
	if spliceAt(got) != spliceAt(frame) {
		t.Fatalf("store round-trip changed splice: %d vs %d", spliceAt(got), spliceAt(frame))
	}
}

// TestDecodeCacheSharesInstances pins the request-side mirror of
// zero-copy: byte-identical instance documents resolve to the same
// decoded *model.Instance (one decode total), different documents to
// different instances, and the null/absent instance still surfaces the
// "missing instance" bad request instead of a zero-value instance.
func TestDecodeCacheSharesInstances(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	req := testInstance(t, "uniform", 3, 9, 21)
	raw, err := json.Marshal(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.decodeInstance(raw)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.decodeInstance(append([]byte(nil), raw...))
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("byte-identical instance decoded twice")
	}
	if got := p.Metrics(); got.DecodeHits != 1 || got.DecodeMisses != 1 {
		t.Fatalf("decode ledger hits=%d misses=%d, want 1/1", got.DecodeHits, got.DecodeMisses)
	}
	other := testInstance(t, "uniform", 3, 9, 22)
	rawOther, _ := json.Marshal(other.Instance)
	second, err := p.decodeInstance(rawOther)
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("different documents shared a decoded instance")
	}
	for _, raw := range []json.RawMessage{nil, json.RawMessage("null")} {
		ins, err := p.decodeInstance(raw)
		if err != nil || ins != nil {
			t.Fatalf("null instance: got (%v, %v), want (nil, nil)", ins, err)
		}
	}
	if _, err := p.decodeInstance(json.RawMessage(`{"m":0,"n":0}`)); err == nil {
		t.Fatal("invalid instance decoded without error")
	}
}

// TestDecodeCacheChargesDecodedBytes pins the decode cache's memory
// budget: every entry is charged its raw bytes plus its decoded instance,
// and puts evict least-recently-used entries until the charged total is
// back under the cap. The hot serving set — 256 n=64/m=16 instances —
// must still fit the production budget whole.
func TestDecodeCacheChargesDecodedBytes(t *testing.T) {
	small, err := model.New(2, 3, [][]float64{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 100)
	// raw bytes + fixed overhead + two 2×3 matrices with row headers.
	want := int64(100 + decodeEntryOverhead + 2*2*(24+8*3))
	if got := entryBytes(raw, small); got != want {
		t.Fatalf("entryBytes = %d, want %d", got, want)
	}
	g := dag.New(3)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	chained, err := model.New(2, 3, small.Q, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := entryBytes(raw, chained); got != want+48*3+16*2 {
		t.Fatalf("entryBytes with a DAG = %d, want %d", got, want+48*3+16*2)
	}

	// Room for three entries: the fourth evicts the oldest, and a hit
	// refreshes an entry so the next eviction passes it over.
	c := newDecodeCache()
	c.cap = 3 * want
	for key := uint64(1); key <= 3; key++ {
		c.put(key, raw, small)
	}
	if c.size != 3*want || c.ll.Len() != 3 {
		t.Fatalf("three entries charged %d bytes in %d entries, want %d in 3", c.size, c.ll.Len(), 3*want)
	}
	if _, ok := c.get(1, raw); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	c.put(4, raw, small)
	if _, ok := c.get(2, raw); ok {
		t.Fatal("least-recently-used entry 2 survived eviction")
	}
	for _, key := range []uint64{1, 3, 4} {
		if _, ok := c.get(key, raw); !ok {
			t.Fatalf("entry %d evicted, want it kept", key)
		}
	}
	if c.size != 3*want {
		t.Fatalf("charged %d bytes after eviction, want %d", c.size, 3*want)
	}
	// Re-putting a held key re-charges it at its new cost.
	c.put(4, raw[:10], small)
	if c.size != 3*want-90 {
		t.Fatalf("re-put charged %d bytes, want %d", c.size, 3*want-90)
	}

	var hot int64
	for seed := int64(0); seed < 256; seed++ {
		req := testInstance(t, "uniform", 16, 64, seed)
		raw, err := json.Marshal(req.Instance)
		if err != nil {
			t.Fatal(err)
		}
		hot += entryBytes(raw, req.Instance)
	}
	if hot > decodeCacheBytes {
		t.Fatalf("256 n=64/m=16 instances charge %d bytes, over the %d-byte budget", hot, decodeCacheBytes)
	}
	t.Logf("256 n=64/m=16 instances charge %.1f MiB of %d MiB", float64(hot)/(1<<20), decodeCacheBytes>>20)
}

// discardRW is a ResponseWriter for serving benchmarks: header map is
// real (handlers set Content-Type/Length), bodies go nowhere.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardRW) WriteHeader(int)             {}

// benchServe measures steady-state hit serving for one endpoint: the
// request body is pre-encoded once and rewound per iteration, so the
// measured allocations are the serving path's own.
func benchServe(b *testing.B, path string, reqBody any, prime func(p *Planner)) {
	p := smallPlanner(func(c *Config) { c.Workers = 1; c.TrialWorkers = 1 })
	defer p.Close()
	srv := NewServer(p)
	prime(p)
	payload, err := json.Marshal(reqBody)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(payload)
	req, err := http.NewRequest(http.MethodPost, path, io.NopCloser(rd))
	if err != nil {
		b.Fatal(err)
	}
	w := &discardRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(payload)
		req.Body = io.NopCloser(rd)
		srv.ServeHTTP(w, req)
	}
}

// BenchmarkServePlanHit is the CI allocation guard for the single-plan
// hit path: a cache hit must serve by splicing the stored frame, never by
// re-marshaling the payload.
func BenchmarkServePlanHit(b *testing.B) {
	req := testInstanceB(b, "uniform", 4, 16, 3)
	benchServe(b, "/v1/plan", req, func(p *Planner) {
		if _, err := p.Plan(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkServeBatchHit guards the streaming batch envelope: 16 warm
// items served per request, every payload spliced from its cached frame.
func BenchmarkServeBatchHit(b *testing.B) {
	items := make([]PlanRequest, 16)
	for i := range items {
		items[i] = *testInstanceB(b, "uniform", 4, 12, int64(100+i))
	}
	benchServe(b, "/v1/plan/batch", &BatchPlanRequest{Items: items}, func(p *Planner) {
		for i := range items {
			if _, err := p.Plan(context.Background(), &items[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// testInstanceB is testInstance for benchmarks.
func testInstanceB(b *testing.B, family string, m, n int, seed int64) *PlanRequest {
	b.Helper()
	ins, err := workload.Generate(workload.Spec{Family: family, M: m, N: n, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return &PlanRequest{Instance: ins}
}
