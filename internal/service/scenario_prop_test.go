package service

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/scenario"
)

// propScenarios is the per-shape scenario count of the property suites
// (trimmed under -short). Every draw is deterministic in the logged seed,
// so a failure reproduces by its scenario index alone.
func propScenarios(t *testing.T) int {
	if testing.Short() {
		return 30
	}
	return 200
}

// propPlanner builds a planner sized for the property sweeps: enough
// queue for any generated batch, a cache big enough to never evict
// mid-comparison.
func propPlanner() *Planner {
	return NewPlanner(Config{Workers: 4, QueueDepth: 1024})
}

// batchFor composes a batch of 1..5 items for one scenario: fresh
// instances, content-duplicates of earlier items in the same batch
// (decoded copies, so deduplication must go by fingerprint), repeats from
// earlier scenarios (cache-hit paths), and occasional invalid items
// (per-item error paths). history carries instances across scenarios.
func batchFor(t *testing.T, g *scenario.Gen, src *rng.SplitMix64, shape scenario.Shape, history *[]PlanRequest) []PlanRequest {
	t.Helper()
	n := 1 + int(src.Uint64()%5)
	items := make([]PlanRequest, 0, n)
	for k := 0; k < n; k++ {
		switch r := src.Float64(); {
		case r < 0.05:
			items = append(items, PlanRequest{}) // missing instance
		case r < 0.10 && len(*history) > 0:
			h := (*history)[int(src.Uint64()%uint64(len(*history)))]
			items = append(items, jsonCloneReq(t, &h))
		case r < 0.35 && len(items) > 0:
			dup := items[int(src.Uint64()%uint64(len(items)))]
			items = append(items, jsonCloneReq(t, &dup))
		default:
			ins, err := g.Instance(shape)
			if err != nil {
				t.Fatal(err)
			}
			item := PlanRequest{Instance: ins}
			if src.Float64() < 0.2 {
				item.Target = 0.25 + 0.5*src.Float64()
			}
			items = append(items, item)
			*history = append(*history, item)
		}
	}
	return items
}

// jsonCloneReq is jsonClone tolerant of invalid requests (a nil instance
// round-trips to a nil instance).
func jsonCloneReq(t *testing.T, req *PlanRequest) PlanRequest {
	t.Helper()
	if req.Instance == nil {
		return PlanRequest{Target: req.Target}
	}
	return jsonClone(t, req)
}

// TestPropertyBatchMatchesSequentialPlan is the batch≡map property: for
// every generated scenario, PlanBatch's per-item outcomes equal a
// sequential Plan call per item — identical canonical payloads for
// successes, identical error text for failures — across all four shapes
// (forest/layered items exercise the per-item rejection path on both
// sides).
func TestPropertyBatchMatchesSequentialPlan(t *testing.T) {
	ctx := context.Background()
	for _, shape := range scenario.Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			g := scenario.New(1000 + int64(len(shape)))
			src := rng.New(2000 + int64(len(shape)))
			pSingle, pBatch := propPlanner(), propPlanner()
			var history []PlanRequest
			for sc := 0; sc < propScenarios(t); sc++ {
				items := batchFor(t, g, src, shape, &history)
				batch, err := pBatch.PlanBatch(ctx, &BatchPlanRequest{Items: items})
				if err != nil {
					t.Fatalf("scenario %d: batch failed as a whole: %v", sc, err)
				}
				okCount := 0
				for i := range items {
					item := items[i]
					single, serr := pSingle.Plan(ctx, &item)
					got := batch.Items[i]
					if serr != nil {
						if got.Status != "error" || got.Error != serr.Error() {
							t.Fatalf("scenario %d item %d: batch %+v vs single error %v", sc, i, got, serr)
						}
						continue
					}
					okCount++
					if got.Status != "ok" {
						t.Fatalf("scenario %d item %d: batch errored (%s) where single succeeded", sc, i, got.Error)
					}
					if bp, sp := canonicalPlanJSON(t, got.Plan), canonicalPlanJSON(t, single); bp != sp {
						t.Fatalf("scenario %d item %d: payloads differ\nbatch:  %s\nsingle: %s", sc, i, bp, sp)
					}
				}
				if batch.OK != okCount || batch.Size != len(items) || batch.OK+batch.Errors != batch.Size ||
					batch.Cached+batch.Computed+batch.Coalesced != batch.OK {
					t.Fatalf("scenario %d: summary does not reconcile: %+v (want ok=%d)", sc, batch, okCount)
				}
			}
			// The shared hit-rate invariant must survive the whole sweep.
			for _, p := range []*Planner{pSingle, pBatch} {
				if snap := p.Metrics(); snap.CacheHitRate > 1 {
					t.Fatalf("cache hit rate %v > 1 (%+v)", snap.CacheHitRate, snap)
				}
			}
		})
	}
}

// TestPropertyBatchOrderAndSplitInvariance: permuting a batch permutes its
// payloads and nothing else (the multiset of serving sources is
// preserved), and splitting a batch at any point — two sub-batches served
// in sequence — yields the same payloads item for item.
func TestPropertyBatchOrderAndSplitInvariance(t *testing.T) {
	ctx := context.Background()
	count := propScenarios(t) / 4
	if count < 10 {
		count = 10
	}
	for _, shape := range scenario.Shapes {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			g := scenario.New(3000 + int64(len(shape)))
			src := rng.New(4000 + int64(len(shape)))
			for sc := 0; sc < count; sc++ {
				var history []PlanRequest
				items := batchFor(t, g, src, shape, &history)
				run := func(p *Planner, its []PlanRequest) *BatchPlanResponse {
					resp, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: its})
					if err != nil {
						t.Fatalf("scenario %d: %v", sc, err)
					}
					return resp
				}
				payload := func(r BatchItemResult) string {
					if r.Status != "ok" {
						return "error: " + r.Error
					}
					return canonicalPlanJSON(t, r.Plan)
				}
				base := run(propPlanner(), items)

				// Fisher–Yates off the deterministic source.
				perm := make([]int, len(items))
				for i := range perm {
					perm[i] = i
				}
				for i := len(perm) - 1; i > 0; i-- {
					j := int(src.Uint64() % uint64(i+1))
					perm[i], perm[j] = perm[j], perm[i]
				}
				permuted := make([]PlanRequest, len(items))
				for i, from := range perm {
					permuted[i] = items[from]
				}
				permResp := run(propPlanner(), permuted)
				for i, from := range perm {
					if payload(permResp.Items[i]) != payload(base.Items[from]) {
						t.Fatalf("scenario %d: payload changed under permutation (item %d→%d)\n%s\n%s",
							sc, from, i, payload(base.Items[from]), payload(permResp.Items[i]))
					}
				}
				if a, b := sourceMultiset(base), sourceMultiset(permResp); a != b {
					t.Fatalf("scenario %d: source multiset changed under permutation: %s vs %s", sc, a, b)
				}

				split := int(src.Uint64() % uint64(len(items)+1))
				pSplit := propPlanner()
				var parts []BatchItemResult
				if split > 0 {
					parts = append(parts, run(pSplit, items[:split]).Items...)
				}
				if split < len(items) {
					parts = append(parts, run(pSplit, items[split:]).Items...)
				}
				for i := range items {
					if payload(parts[i]) != payload(base.Items[i]) {
						t.Fatalf("scenario %d split %d: item %d differs\n%s\n%s",
							sc, split, i, payload(base.Items[i]), payload(parts[i]))
					}
				}
			}
		})
	}
}

func sourceMultiset(r *BatchPlanResponse) string {
	srcs := make([]string, 0, len(r.Items))
	for _, it := range r.Items {
		s := it.Source
		if it.Status != "ok" {
			s = "error"
		}
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	return fmt.Sprint(srcs)
}

// TestPropertyPaperInvariants checks the paper's machine-verifiable
// guarantees on every plannable generated instance: the rounded schedule
// assigns every job at least one step, its reported length is consistent
// with the machine rows, and the LP relaxation value t* — a lower bound on
// any schedule's expected mass delivery — does not exceed the Monte Carlo
// makespan estimate of the paper's own policy for the class (SEM for
// independent instances, the chain engine for chains). Seeds are fixed, so
// the Monte Carlo comparison is deterministic, not flaky.
func TestPropertyPaperInvariants(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []scenario.Shape{scenario.Independent, scenario.Chains} {
		shape := shape
		t.Run(string(shape), func(t *testing.T) {
			g := scenario.New(5000 + int64(len(shape)))
			p := propPlanner()
			for sc := 0; sc < propScenarios(t); sc++ {
				ins, err := g.Instance(shape)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := p.Plan(ctx, &PlanRequest{Instance: ins})
				if err != nil {
					t.Fatalf("scenario %d (m=%d n=%d): %v", sc, ins.M, ins.N, err)
				}
				if math.IsNaN(resp.TStar) || math.IsInf(resp.TStar, 0) || resp.TStar < 0 {
					t.Fatalf("scenario %d: t* = %v", sc, resp.TStar)
				}

				// Every job is assigned, and the declared length covers
				// every machine row.
				steps := make([]int64, ins.N)
				for i, runs := range resp.Machines {
					var rowLen int64
					for _, r := range runs {
						if r.Job < 0 || r.Job >= ins.N || r.Steps <= 0 {
							t.Fatalf("scenario %d: bad run %+v on machine %d", sc, r, i)
						}
						steps[r.Job] += r.Steps
						rowLen += r.Steps
					}
					if rowLen > resp.Length {
						t.Fatalf("scenario %d: machine %d row length %d exceeds schedule length %d", sc, i, rowLen, resp.Length)
					}
				}
				for j, s := range steps {
					if s == 0 {
						t.Fatalf("scenario %d: job %d unassigned in the rounded schedule (m=%d n=%d t*=%v)", sc, j, ins.M, ins.N, resp.TStar)
					}
				}

				est, err := p.Estimate(ctx, &EstimateRequest{Instance: ins, Trials: 24, Seed: 7}, nil)
				if err != nil {
					t.Fatalf("scenario %d estimate: %v", sc, err)
				}
				if est.Mean < resp.TStar {
					t.Fatalf("scenario %d (m=%d n=%d): estimated makespan %v below t* %v — the LP bound is violated",
						sc, ins.M, ins.N, est.Mean, resp.TStar)
				}
				if resp.LowerBound > 0 && est.Mean < resp.LowerBound {
					t.Fatalf("scenario %d: estimated makespan %v below the Lemma 1 lower bound %v", sc, est.Mean, resp.LowerBound)
				}
			}
		})
	}
}
