package service

import (
	"context"
	"time"

	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// request kinds, part of every memory, flight and store key.
const (
	kindPlan = iota + 1
	kindEstimate
)

// requestKey identifies a cacheable response: the instance fingerprint
// plus every request parameter that determines the result. Plan responses
// are pure functions of (instance, target); estimate responses add
// (policy, trials, seed) — the Monte Carlo engine is deterministic in
// those, so caching is exact, never approximate.
type requestKey struct {
	fp     sched.Fingerprint
	kind   uint8
	policy string
	target float64
	trials int
	seed   int64
}

// work is what a miss needs to compute beyond its key: the instance, and
// the plan's precedence class or the estimate's policy factory.
type work struct {
	ins    *model.Instance
	class  dag.Class
	newPol func() sim.Policy
}

// compute runs key's computation on a worker slot the caller holds.
func (p *Planner) compute(key requestKey, w work, fl *flightCall, emit func(Progress), tc *trace.Ctx) (any, error) {
	if key.kind == kindEstimate {
		return p.computeEstimate(w.ins, key.fp, key.policy, w.newPol(), key.trials, key.seed, fl.abandoned, emit, tc)
	}
	return p.computePlan(w.ins, key.fp, key.target, w.class, fl.abandoned, tc)
}

// admission is the caller-specific part of resolve: how a request that
// misses memory pays for the worker slot its computation needs.
//
// A single plan or estimate (prepaid 0) pays at the slot, one unit, fail
// fast (admit), and resolve meters its cache hit or miss and any shared
// serve. A batch group was charged prepaid units at batch admission: it
// only waits for the slot, every path that turns out not to compute
// refunds the charge, and the batch meters the group itself (pass 1 and
// its final tally).
type admission struct {
	prepaid int
	// gate, if set, runs after the memory miss and before the flight join;
	// its error ends the request there. A plan past the brownout threshold
	// leaves this way (brownoutGate) to take the degraded fallback.
	gate func(p *Planner, w work) error
}

// brownoutGate is a single plan's gate: past the pressure threshold a
// degrade-eligible request skips the line (and the flight table —
// degraded answers are never shared or kept) as overloaded.
func (p *Planner) brownoutGate(w work) error {
	if p.shouldDegrade(w.class) {
		return ErrOverloaded
	}
	return nil
}

// admit takes a worker slot for a flight leader's computation. A single
// request first charges one unit, failing fast with ErrOverloaded when the
// waiting line is already QueueDepth deep — the 429 path that keeps the
// backlog (and therefore p99) bounded under overload. A charged
// computation waits for a slot until either one frees or every caller
// abandons the flight (fl.abandoned closes): a plan nobody is waiting for
// must not keep burning queue and pool capacity. Work with live followers
// keeps waiting — one impatient caller never cancels a shared result.
func (p *Planner) admit(adm admission, fl *flightCall) error {
	if adm.prepaid == 0 {
		if q := p.queued.Add(1); int(q) > p.cfg.QueueDepth {
			p.queued.Add(-1)
			return p.overloaded()
		}
		adm.prepaid = 1
	}
	defer p.refund(adm) // with a slot or abandoned, the charge leaves the line
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-fl.abandoned:
		p.metrics.deadlineAbandoned.Add(1)
		return errAbandoned
	}
}

// refund takes adm's charge off the line once it is not queued work
// anymore: the caller follows another's flight, its answer was already in
// memory or the store, or its wait for a slot ended.
func (p *Planner) refund(adm admission) {
	if adm.prepaid > 0 {
		p.queued.Add(-int64(adm.prepaid))
	}
}

// memGet looks key up in the memory tier without metering it.
func (p *Planner) memGet(key requestKey) ([]byte, bool) {
	frame, _, err := p.mem.Get(context.Background(), storeKeyOf(key))
	return frame, err == nil
}

// resolve is the one cache-resolve pipeline: plan, estimate and every
// batch group run their request key through it.
//
//  1. A memory hit returns at once.
//  2. A miss joins key's flight; a follower waits for the leader's frame.
//  3. The leader re-checks memory, uncounted — a racing flight may have
//     landed since step 1 — and then, on a detached goroutine, reads
//     Config.Store.
//  4. Only a store miss pays admission (admit) for a worker slot.
//  5. The leader computes, encodes the response once, and keeps the frame
//     in memory and the store.
//
// Nothing on the memory-hit path allocates: adm and w are plain values
// until a miss hands them to the detached computation.
//
// The computation runs detached (spawn) and survives its caller: coalesced
// followers and the memory tier still want the result when the leader's
// client disconnects. A caller that gives up leaves the flight; only when
// the LAST caller leaves is the computation abandoned, and it then stops
// at its next checkpoint (slot wait, solve boundary, Monte Carlo chunk).
//
// The served source is cached for a memory or store answer, coalesced for
// a follower and computed for the leader that computed. Every serve a
// single caller did not compute after missing memory counts as coalesced,
// so the reported hit rate stays ≤ 1.
//
// onProgress, if non-nil and this caller leads, observes the progress the
// computation emits. Progress flows through a channel drained by this
// (caller) goroutine, so onProgress never runs on the detached goroutine —
// it may touch the caller's ResponseWriter, which dies with the caller.
func (p *Planner) resolve(ctx context.Context, key requestKey, w work, tc *trace.Ctx, adm admission, onProgress func(Progress)) (served, error) {
	single := adm.prepaid == 0
	if frame, ok := p.memGet(key); ok {
		if single {
			p.metrics.cacheHits.Add(1)
		}
		p.refund(adm)
		return newServed(frame, sourceCached), nil
	}
	if single {
		p.metrics.cacheMisses.Add(1)
	}
	if adm.gate != nil {
		if err := adm.gate(p, w); err != nil {
			return served{}, err
		}
	}
	c, follower := p.flight.join(key)
	source := sourceCoalesced
	var progCh chan Progress
	// computed is written by the detached computation before the flight
	// lands and read here only after c.done closes.
	computed := false
	if follower {
		p.refund(adm)
		// A coalesced follower's wait on the leader is its whole story:
		// meter it as the flight stage.
		defer p.obsStage(tc, trace.StageFlight, time.Now())
	} else {
		if frame, ok := p.memGet(key); ok {
			p.flight.finish(key, c, frame, nil)
			p.refund(adm)
			return p.shareServed(frame, sourceCached, single), nil
		}
		emit := func(Progress) {}
		if onProgress != nil {
			ch := make(chan Progress, 8)
			progCh = ch
			emit = func(pr Progress) {
				select {
				case ch <- pr:
				default: // progress is best-effort; never block the compute
				}
			}
		}
		source = sourceCached // a store answer
		p.spawn(key, c, tc, func() (any, error) {
			// Read through the store before burning a worker slot: a plan
			// any replica ever computed is a validation, not a solve.
			if frame, ok := p.storeGet(key, tc); ok {
				p.refund(adm)
				return frame, nil
			}
			qstart := time.Now()
			if err := p.admit(adm, c); err != nil {
				return nil, err
			}
			p.obsStage(tc, trace.StageQueue, qstart)
			defer p.release()
			resp, err := p.compute(key, w, c, emit, tc)
			if err != nil {
				return nil, err
			}
			frame, err := p.encodeFrame(resp, tc)
			if err != nil {
				return nil, err
			}
			if key.kind == kindPlan {
				p.metrics.plansComputed.Add(1)
			}
			p.keep(key, resp, frame, tc)
			computed = true
			return frame, nil
		})
	}
	for {
		select {
		case pr := <-progCh:
			onProgress(pr)
		case <-c.done:
			// Deliver progress that landed in the channel before the
			// flight finished, in order, so callers see every chunk
			// boundary.
			for progCh != nil {
				select {
				case pr := <-progCh:
					onProgress(pr)
				default:
					progCh = nil
				}
			}
			if c.err != nil {
				return served{}, c.err
			}
			frame := c.val.([]byte)
			if computed {
				return newServed(frame, sourceComputed), nil
			}
			return p.shareServed(frame, source, single), nil
		case <-ctx.Done():
			p.flight.leave(key, c)
			return served{}, ctx.Err()
		}
	}
}

// shareServed labels a serve this caller did not compute after missing
// memory — a follower, or a leader that found the answer in memory or the
// store — and meters it as coalesced for a single caller (a batch counts
// its groups' shared items itself). Each such caller already recorded a
// cache miss, so the reported hit rate stays ≤ 1.
func (p *Planner) shareServed(frame []byte, source string, single bool) served {
	if single {
		p.metrics.coalesced.Add(1)
	}
	return newServed(frame, source)
}
