package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/sched"
	"repro/internal/store"
)

func fpOf(i int) sched.Fingerprint {
	return sched.Fingerprint{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i) + 1}
}

func planKeyN(i int) requestKey {
	return requestKey{fp: fpOf(i), kind: kindPlan, target: 0.5}
}

// parityDelta is one step's outcome on one endpoint: the serving source
// label and the counter deltas it caused.
type parityDelta struct {
	source                                           string
	hits, misses, coalesced, computed, storeDiskHits uint64
}

func deltaOf(source string, before, after MetricsSnapshot) parityDelta {
	return parityDelta{
		source:        source,
		hits:          after.CacheHits - before.CacheHits,
		misses:        after.CacheMisses - before.CacheMisses,
		coalesced:     after.Coalesced - before.Coalesced,
		computed:      after.PlansComputed - before.PlansComputed,
		storeDiskHits: after.StoreDiskHits - before.StoreDiskHits,
	}
}

// parityEndpoint drives one endpoint with one instance and reports the
// serving source label: the batch item's source, or the single payload's
// cached/coalesced flags in the same vocabulary.
type parityEndpoint struct {
	path string
	body func(seed int64) any
}

func (e parityEndpoint) post(ts *httptest.Server, body any) (string, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	resp, err := ts.Client().Post(ts.URL+e.path, "application/json", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", e.path, resp.StatusCode, raw)
	}
	if e.path == "/v1/plan/batch" {
		var b BatchPlanResponse
		if err := json.Unmarshal(raw, &b); err != nil {
			return "", err
		}
		if len(b.Items) != 1 || b.Items[0].Status != "ok" {
			return "", fmt.Errorf("batch items: %s", raw)
		}
		return b.Items[0].Source, nil
	}
	var flags struct{ Cached, Coalesced bool }
	if err := json.Unmarshal(raw, &flags); err != nil {
		return "", err
	}
	switch {
	case flags.Cached:
		return sourceCached, nil
	case flags.Coalesced:
		return sourceCoalesced, nil
	}
	return sourceComputed, nil
}

// TestEndpointParity drives /v1/plan, /v1/estimate and /v1/plan/batch
// through one script — cold compute, memory hit, coalesced follower, and
// a store hit from a fresh planner on the same disk store — and pins that
// all three label and meter each step identically: they share one resolve
// path. plans_computed counts plans only, so an estimate's compute leaves
// it at zero.
func TestEndpointParity(t *testing.T) {
	endpoints := []parityEndpoint{
		{"/v1/plan", func(seed int64) any { return testInstance(t, "uniform", 4, 10, seed) }},
		{"/v1/estimate", func(seed int64) any {
			return &EstimateRequest{Instance: testInstance(t, "uniform", 4, 10, seed).Instance, Policy: "sem", Trials: 8, Seed: 3}
		}},
		{"/v1/plan/batch", func(seed int64) any {
			return &BatchPlanRequest{Items: []PlanRequest{*testInstance(t, "uniform", 4, 10, seed)}}
		}},
	}
	for ei, e := range endpoints {
		t.Run(e.path, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.DiskConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			cfg := func(c *Config) { c.Workers = 1; c.Store = st }
			ts, p := newTestServer(t, cfg)
			warm, cold := int64(700+10*ei), int64(701+10*ei)
			planned := uint64(1)
			if e.path == "/v1/estimate" {
				planned = 0
			}
			var got []parityDelta
			step := func(ts *httptest.Server, p *Planner, seed int64) {
				t.Helper()
				before := p.Metrics()
				src, err := e.post(ts, e.body(seed))
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, deltaOf(src, before, p.Metrics()))
			}
			step(ts, p, warm) // cold compute
			step(ts, p, warm) // memory hit

			// Coalesced follower: the only worker is busy, so the leader
			// waits in admission while a second request joins its flight.
			before := p.Metrics()
			p.slots <- struct{}{}
			type result struct {
				src string
				err error
			}
			leader, follower := make(chan result, 1), make(chan result, 1)
			waitFlight := func(dups int) {
				for {
					p.flight.mu.Lock()
					n, d := len(p.flight.m), 0
					for _, c := range p.flight.m {
						d += c.dups
					}
					p.flight.mu.Unlock()
					if n == 1 && d == dups {
						return
					}
					runtime.Gosched()
				}
			}
			body := e.body(cold)
			go func() { src, err := e.post(ts, body); leader <- result{src, err} }()
			waitFlight(0)
			go func() { src, err := e.post(ts, body); follower <- result{src, err} }()
			waitFlight(1)
			<-p.slots
			l, f := <-leader, <-follower
			if l.err != nil || f.err != nil {
				t.Fatalf("leader %v, follower %v", l.err, f.err)
			}
			after := p.Metrics()
			if l.src != sourceComputed || f.src != sourceCoalesced {
				t.Fatalf("flight sources: leader %q follower %q", l.src, f.src)
			}
			got = append(got, deltaOf("computed+coalesced", before, after))

			// A fresh planner on the same disk store: its memory is empty,
			// the disk log answers.
			ts2, p2 := newTestServer(t, cfg)
			defer p2.Close()
			step(ts2, p2, warm)
			p.Close()

			want := []parityDelta{
				{source: sourceComputed, misses: 1, computed: planned},
				{source: sourceCached, hits: 1},
				{source: "computed+coalesced", misses: 2, coalesced: 1, computed: planned},
				{source: sourceCached, misses: 1, coalesced: 1, storeDiskHits: 1},
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("step %d: got %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}
