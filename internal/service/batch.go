package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

// refItemWork is the n·m product of the reference batch item (the n=64,
// m=16 cell the service benchmarks center on): one admission cost unit.
// The LP1 behind a plan has n·m+1 variables, so n·m is the natural
// first-cut proxy for expected compute cost — ROADMAP's "weigh requests,
// not count them" backpressure, seeded here for the batch path.
const refItemWork = 64 * 16

// itemCost converts an instance's size into admission cost units:
// ⌈n·m/refItemWork⌉, at least 1. A batch charges the sum over its
// to-be-computed items against the queue budget, so ten large instances
// consume the capacity of ten, not of one request.
func itemCost(ins *model.Instance) int {
	c := (ins.N*ins.M + refItemWork - 1) / refItemWork
	if c < 1 {
		c = 1
	}
	return c
}

// BatchPlanRequest asks for rounded schedules for a list of instances in
// one round trip. Items are independent: each is validated, admitted, and
// computed (or served from cache / coalesced) on its own, and one bad item
// yields a per-item error, never a failed batch.
type BatchPlanRequest struct {
	Items []PlanRequest `json:"items"`
	// DeadlineMS, when positive, turns on partial-results mode: items
	// still unfinished after the deadline report a per-item error while
	// finished items return normally. A computation the deadline strands
	// keeps running only while some other caller still wants it; work
	// nobody waits for stops at its next checkpoint instead of burning a
	// pool slot.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Serving sources, shared by the batch items and the single endpoints.
const (
	sourceCached    = "cached"    // served from the memory tier or Config.Store
	sourceComputed  = "computed"  // this request led the computation
	sourceCoalesced = "coalesced" // served off shared work: an in-flight request or an intra-batch duplicate
	sourceDegraded  = "degraded"  // brownout fallback: LP-free list schedule, never kept
)

// BatchItemResult is one item's outcome. Exactly one of Plan or Error is
// set. Plan payloads are the canonical cached values — their Cached and
// Coalesced flags are always false; how the item was served is the
// envelope's Source, which (unlike the payload) depends on request order
// and cache state.
type BatchItemResult struct {
	Status string        `json:"status"` // "ok" or "error"
	Source string        `json:"source,omitempty"`
	Plan   *PlanResponse `json:"plan,omitempty"`
	Error  string        `json:"error,omitempty"`
	// frame is the item's canonical pre-encoded payload, shared with the
	// memory tier; the HTTP layer splices it into the batch envelope, and
	// PlanBatch decodes Plan from it for library callers (unexported,
	// invisible to encoding/json).
	frame []byte
}

// BatchPlanResponse is the per-item results plus the batch's own
// accounting: Size = OK + Errors and OK = Cached + Computed + Coalesced +
// Degraded always reconcile. CostUnits is what admission charged for the
// computed items (cache hits, rejected items, and degraded fallbacks are
// free).
type BatchPlanResponse struct {
	Size      int               `json:"size"`
	OK        int               `json:"ok"`
	Errors    int               `json:"errors"`
	Cached    int               `json:"cached"`
	Computed  int               `json:"computed"`
	Coalesced int               `json:"coalesced"`
	Degraded  int               `json:"degraded"`
	CostUnits int               `json:"cost_units"`
	Items     []BatchItemResult `json:"items"`
}

// batchGroup is one unique requestKey's worth of batch items: idxs are the
// item positions sharing the key (intra-batch duplicates dedupe here,
// before any flight registration), cost its admission charge.
type batchGroup struct {
	key    requestKey
	idxs   []int
	cost   int
	ins    *model.Instance
	fp     sched.Fingerprint
	target float64
	class  dag.Class

	sv  served // sv.source alone tags a degraded group until it is minted
	err error
}

// PlanBatch computes (or serves from cache) rounded schedules for every
// item of req. Batch-level errors are reserved for the request itself
// (malformed envelope, overload, shutdown, a gone client); anything wrong
// with an individual item — validation, an over-budget instance, a compute
// failure, a missed deadline — comes back as that item's error.
func (p *Planner) PlanBatch(ctx context.Context, req *BatchPlanRequest) (*BatchPlanResponse, error) {
	resp, err := p.planBatchServe(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	for i := range resp.Items {
		it := &resp.Items[i]
		if it.Status != "ok" {
			continue
		}
		it.Plan = &PlanResponse{}
		if err := json.Unmarshal(it.frame, it.Plan); err != nil {
			return nil, fmt.Errorf("service: decoding batch item %d: %w", i, err)
		}
	}
	return resp, nil
}

// planBatchServe is PlanBatch with the request's trace context; the HTTP
// layer passes its Ctx, library callers go through PlanBatch with nil.
func (p *Planner) planBatchServe(ctx context.Context, req *BatchPlanRequest, tc *trace.Ctx) (*BatchPlanResponse, error) {
	if err := p.begin(); err != nil {
		return nil, err
	}
	defer p.end()
	start := time.Now()
	resp, err := p.planBatch(ctx, req, tc)
	p.metrics.observeBatch(time.Since(start), resp, err)
	return resp, err
}

func (p *Planner) planBatch(ctx context.Context, req *BatchPlanRequest, tc *trace.Ctx) (*BatchPlanResponse, error) {
	if req == nil || len(req.Items) == 0 {
		return nil, badRequestf("batch needs at least one item")
	}
	if len(req.Items) > p.cfg.MaxBatchItems {
		return nil, badRequestf("batch of %d items over the cap %d (split the batch)", len(req.Items), p.cfg.MaxBatchItems)
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return nil, err
	}

	items := make([]BatchItemResult, len(req.Items))

	// Validate every item and dedupe by content key: duplicate items —
	// within the batch or across different decodings of the same instance —
	// collapse onto one group before anything touches the flight table.
	groups := make(map[requestKey]*batchGroup)
	var order []*batchGroup
	for i := range req.Items {
		ins, target, class, err := p.validatePlan(&req.Items[i])
		if err != nil {
			items[i] = BatchItemResult{Status: "error", Error: err.Error()}
			continue
		}
		fp := sched.FingerprintInstance(ins)
		key := requestKey{fp: fp, kind: kindPlan, target: target}
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{key: key, cost: itemCost(ins), ins: ins, fp: fp, target: target, class: class}
			groups[key] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
	}

	// Pass 1 — look the groups up in memory (uncounted: if admission
	// rejects the batch below, no response is delivered and no hit may be
	// claimed) and price the remaining work. Under brownout pressure,
	// eligible miss groups take the degraded fallback here — free of
	// admission charge, exactly like the single path.
	var misses []*batchGroup
	totalCost := 0
	degradeNow := p.pressure() >= p.cfg.BrownoutThreshold
	for _, g := range order {
		if frame, ok := p.memGet(g.key); ok {
			g.sv = newServed(frame, sourceCached)
			continue
		}
		if g.cost > p.cfg.MaxItemCost {
			g.err = badRequestf("item cost %d units (n=%d, m=%d) over the per-item budget %d", g.cost, g.ins.N, g.ins.M, p.cfg.MaxItemCost)
			continue
		}
		if degradeNow && p.degradeAllowed(g.class) {
			// Tag now, mint after admission settles: if the batch's
			// non-degradable remainder rejects below, no response is
			// delivered and no degraded serve may be counted.
			g.sv.source = sourceDegraded
			continue
		}
		misses = append(misses, g)
		totalCost += g.cost
	}

	// Admission weighs items, not requests: the batch charges the summed
	// cost of its to-be-computed items against the same queue budget
	// single requests count against. A batch whose own cost exceeds the
	// budget is still admittable — but only against an empty enough line
	// (otherwise it could never run at all). If the line filled between
	// the pressure check and here, degrade-eligible groups take the
	// fallback and only the remainder re-tries admission.
	if totalCost > 0 {
		if q := p.queued.Add(int64(totalCost)); q > int64(max(p.cfg.QueueDepth, totalCost)) {
			p.queued.Add(-int64(totalCost))
			var keep []*batchGroup
			kept := 0
			for _, g := range misses {
				if !p.degradeAllowed(g.class) {
					keep = append(keep, g)
					kept += g.cost
				}
			}
			if kept == totalCost {
				// Nothing degradable; the whole batch rejects as before.
				return nil, fmt.Errorf("%w (batch of %d cost units)", p.overloaded(), totalCost)
			}
			if kept > 0 {
				if q := p.queued.Add(int64(kept)); q > int64(max(p.cfg.QueueDepth, kept)) {
					p.queued.Add(-int64(kept))
					return nil, fmt.Errorf("%w (batch of %d cost units)", p.overloaded(), kept)
				}
			}
			// The remainder is admitted (or empty): the eligible groups
			// take the fallback.
			for _, g := range misses {
				if p.degradeAllowed(g.class) {
					g.sv.source = sourceDegraded
				}
			}
			misses, totalCost = keep, kept
		}
	}

	// The batch is fully admitted; mint the degraded fallbacks tagged
	// above. Building them after admission keeps the degraded-serve
	// counter equal to fallbacks actually delivered.
	for _, g := range order {
		if g.sv.source == sourceDegraded {
			sv, err := p.degradedServe(g.ins, g.fp, g.target, g.class, tc)
			if err != nil {
				g.err = err
				continue
			}
			g.sv = sv
		}
	}

	// The batch is admitted: now record per-item cache accounting. Misses
	// land before any coalesced counts can (the tally below), keeping
	// coalesced ≤ misses — and the reported hit rate ≤ 1 — within any one
	// /metrics document.
	for _, g := range order {
		switch {
		case g.sv.source == sourceCached:
			p.metrics.cacheHits.Add(uint64(len(g.idxs)))
		case g.err == nil:
			p.metrics.cacheMisses.Add(uint64(len(g.idxs)))
		}
	}

	// Fan the misses across the worker pool, one resolve per unique key.
	// They coalesce against in-flight singles and other batches through
	// the same flight table the single path uses.
	dctx := ctx
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	var wg sync.WaitGroup
	for _, g := range misses {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			g.sv, g.err = p.resolve(dctx, g.key, work{ins: g.ins, class: g.class}, tc, admission{prepaid: g.cost}, nil)
			if errors.Is(g.err, context.DeadlineExceeded) || errors.Is(g.err, context.Canceled) {
				g.err = fmt.Errorf("item unfinished at the batch deadline: %w", g.err)
			}
		}(g)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The client is gone; the response has no reader. Each resolve
		// already left its flight: work other callers still want runs to
		// completion and lands in memory, the rest stops at its next
		// checkpoint.
		return nil, err
	}

	resp := &BatchPlanResponse{Size: len(req.Items), CostUnits: totalCost, Items: items}
	for _, g := range order {
		if g.err != nil {
			for _, i := range g.idxs {
				items[i] = BatchItemResult{Status: "error", Error: g.err.Error()}
			}
			continue
		}
		for k, i := range g.idxs {
			src := g.sv.source
			if src == sourceComputed && k > 0 {
				src = sourceCoalesced // intra-batch duplicate of the computed item
			}
			items[i] = BatchItemResult{Status: "ok", Source: src, frame: g.sv.frame}
		}
	}
	for i := range items {
		switch {
		case items[i].Status == "error":
			resp.Errors++
			continue
		case items[i].Source == sourceCached:
			resp.Cached++
		case items[i].Source == sourceComputed:
			resp.Computed++
		case items[i].Source == sourceDegraded:
			resp.Degraded++
		default:
			resp.Coalesced++
		}
		resp.OK++
	}
	// Every item of a resolved group recorded a miss above; all but the
	// one a computing group computed were served off shared work (flight
	// followers, memory or store answers, intra-batch duplicates) and fold
	// into the shared-work bucket exactly like a single's shared serve.
	coalescedItems := 0
	for _, g := range misses {
		if g.err == nil {
			coalescedItems += len(g.idxs)
			if g.sv.source == sourceComputed {
				coalescedItems--
			}
		}
	}
	if coalescedItems > 0 {
		p.metrics.coalesced.Add(uint64(coalescedItems))
	}
	return resp, nil
}
