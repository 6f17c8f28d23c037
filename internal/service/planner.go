package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/rounding"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
)

// Service errors. The HTTP layer maps ErrBadRequest-wrapped errors to 400,
// ErrOverloaded to 429, and ErrShuttingDown to 503; everything else is a
// 500.
var (
	ErrOverloaded      = errors.New("service: queue full")
	ErrShuttingDown    = errors.New("service: shutting down")
	ErrBadRequest      = errors.New("service: bad request")
	errFlightAbandoned = errors.New("service: in-flight computation abandoned")
	// errAbandoned ends a detached computation whose every caller has given
	// up (deadline expired or disconnected) before it reached a worker slot
	// or its next solve checkpoint. It never reaches a live caller: the
	// flight is orphaned off the table before the computation sees it.
	errAbandoned = errors.New("service: computation abandoned by every caller")
)

// overloadError is ErrOverloaded with an adaptive Retry-After hint derived
// from the live queue and the measured per-unit compute cost. errors.Is
// still matches ErrOverloaded through Unwrap.
type overloadError struct {
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return ErrOverloaded.Error() }
func (e *overloadError) Unwrap() error { return ErrOverloaded }

// badRequestf wraps ErrBadRequest with detail.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Brownout policies: what an eligible plan request gets when admission
// pressure crosses Config.BrownoutThreshold. See Config.DegradedPolicy.
const (
	// DegradeNever keeps the PR 4 behavior: a full line rejects with 429.
	DegradeNever = "reject"
	// DegradeIndependent serves independent-class plan requests a cheap
	// LP-free fallback under pressure; chains still reject.
	DegradeIndependent = "independent"
	// DegradeAll serves every plannable class the fallback under pressure.
	DegradeAll = "all"
)

// maxDeadlineMS bounds every client deadline knob at 24h: far beyond any
// real deadline, and small enough that the nanosecond conversion can never
// overflow into an already-expired context.
const maxDeadlineMS = 24 * 60 * 60 * 1000

// withDeadlineMS derives the request context a client deadline bounds.
// ms ≤ 0 (absent) leaves ctx alone; the returned cancel is always safe to
// defer.
func withDeadlineMS(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if ms <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// validDeadlineMS rejects out-of-range client deadlines.
func validDeadlineMS(ms int64) error {
	if ms < 0 || ms > maxDeadlineMS {
		return badRequestf("deadline_ms %d outside [0, %d]", ms, int64(maxDeadlineMS))
	}
	return nil
}

// Config sizes the planner. Zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrent plan/estimate computations (default
	// GOMAXPROCS). Each computation borrows one rounding.Workspace.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; request
	// QueueDepth+1 is rejected with ErrOverloaded (default 4×Workers).
	QueueDepth int
	// MemBytes is the byte budget of the memory tier (default 64 MiB): a
	// sharded LRU of canonical response frames, always on, that every
	// endpoint resolves through before the flight table and Store.
	MemBytes int64
	// MaxTrials is the per-request Monte Carlo trial budget; estimate
	// requests above it are rejected as bad requests (default 10000).
	MaxTrials int
	// DefaultTrials is used when an estimate request omits trials
	// (default 200).
	DefaultTrials int
	// TrialWorkers is the Monte Carlo worker count per estimate request
	// (default 2: request-level parallelism comes from Workers, so
	// per-request fan-out stays modest to avoid oversubscription).
	TrialWorkers int
	// ProgressChunk is the trial batch size between streamed progress
	// callbacks (default 64).
	ProgressChunk int
	// MaxBatchItems bounds the item count of one /v1/plan/batch request
	// (default 256). Larger batches are a bad request, not an overload:
	// the client should split them.
	MaxBatchItems int
	// MaxItemCost bounds the admission cost of a single batch item, in
	// units of the reference instance size (see itemCost; default 64,
	// i.e. n·m up to 64×1024). An item over it gets a per-item error —
	// one oversized instance must not poison its batch.
	MaxItemCost int
	// DegradedPolicy selects the brownout behavior when admission pressure
	// crosses BrownoutThreshold: DegradeNever (default) keeps rejecting
	// with 429; DegradeIndependent serves independent plan requests the
	// LP-free list-schedule fallback; DegradeAll serves every plannable
	// class the fallback. Estimates never degrade — a degraded sample
	// would be silently wrong, while a degraded plan is openly marked.
	DegradedPolicy string
	// BrownoutThreshold is the queue-pressure fraction (queued/QueueDepth)
	// at which eligible plan requests start degrading instead of queueing
	// (default 1.0: degrade only where the old behavior would 429).
	BrownoutThreshold float64
	// ComputeHook, if non-nil, runs at every compute checkpoint (before an
	// LP solve, between Monte Carlo chunks). An error return fails the
	// computation; a panic exercises the panic-isolation path. It exists
	// for fault injection (internal/faults) and tests.
	ComputeHook func() error
	// Store, if non-nil, is what lies below the memory tier — the disk
	// log, a replicated store over it, or a test's store: a flight leader
	// reads through it before taking a worker slot and persists what it
	// computes; Warmup waits for its recovery (disk index rebuild,
	// anti-entropy) before /readyz flips. The planner does not own its
	// lifecycle — whoever built the store closes it, after Planner.Close.
	Store store.PlanStore
	// TraceSample is the head-based request-trace sampling probability in
	// [0, 1]. Errors, degraded responses, and slowest-N qualifiers are
	// always kept when tracing is enabled. The default 0 together with
	// TraceRing 0 and no TraceLog disables tracing entirely — library
	// callers and benchmarks pay nothing.
	TraceSample float64
	// TraceRing is the /debug/traces ring-buffer capacity; 0 disables the
	// recorder (and slowest-N tracking).
	TraceRing int
	// TraceSlowN is how many slowest traces to retain when TraceRing > 0
	// (default 32).
	TraceSlowN int
	// TraceLog, if non-nil, receives one CRC-framed binary record per
	// kept trace (see internal/trace). The planner does not own its
	// lifecycle — whoever opened it closes it, after Planner.Close.
	TraceLog *trace.LogWriter
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MemBytes <= 0 {
		c.MemBytes = 64 << 20
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 10000
	}
	if c.DefaultTrials <= 0 {
		c.DefaultTrials = 200
	}
	if c.DefaultTrials > c.MaxTrials {
		// A tight MaxTrials must not make trial-less requests
		// unserveable against the larger default.
		c.DefaultTrials = c.MaxTrials
	}
	if c.TrialWorkers <= 0 {
		c.TrialWorkers = 2
	}
	if c.ProgressChunk <= 0 {
		c.ProgressChunk = 64
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxItemCost <= 0 {
		c.MaxItemCost = 64
	}
	switch c.DegradedPolicy {
	case DegradeIndependent, DegradeAll:
	default:
		// Unknown strings fall back to the safe pre-brownout behavior;
		// cmd/suud validates the flag loudly before building a Config.
		c.DegradedPolicy = DegradeNever
	}
	if c.BrownoutThreshold <= 0 || c.BrownoutThreshold > 1 {
		c.BrownoutThreshold = 1
	}
	return c
}

// Planner is the concurrent scheduling service core: it admits requests
// up to a queue bound, coalesces duplicates in flight, serves repeats
// from its memory tier, and computes misses on a bounded worker pool of
// pooled LP workspaces. Cross-request reuse lives entirely in the memory
// tier, the flight group and Config.Store, all keyed by content
// fingerprint; the policies' LP caches are request-scoped (see policies
// below), so a finished computation retains nothing.
type Planner struct {
	cfg     Config
	metrics *Metrics
	mem     *store.Mem // canonical frames by storeKeyOf; the only in-memory response tier
	decode  *decodeCache
	tracer  *trace.Tracer
	flight  flightGroup
	pool    rounding.WorkspacePool
	// policies maps each policy name to a factory building a fresh
	// instance with fresh LP caches. Each estimate computation gets its
	// own: the LP caches key on the *model.Instance pointer, and only
	// trials within one computation share that pointer — so per-request
	// caches capture all the reuse there is, while planner-lifetime ones
	// would only pin every decoded instance (and its LP results) forever.
	policies map[string]func() sim.Policy

	slots  chan struct{}
	queued atomic.Int64

	// readiness, distinct from liveness: ready flips on after Warmup and
	// off at BeginDrain, so a load balancer stops routing before Shutdown
	// starts refusing.
	ready    atomic.Bool
	draining atomic.Bool

	// unitCostNS is an EWMA of observed compute nanoseconds per admission
	// cost unit (itemCost), stored as float64 bits. It prices the adaptive
	// Retry-After hint: backlog units × cost per unit ÷ workers.
	unitCostNS atomic.Uint64

	// lifecycle: a mutex-guarded unit count instead of a sync.WaitGroup,
	// because begin() may Add while Close() waits — a combination
	// WaitGroup documents as misuse when the counter can touch zero.
	lmu       sync.Mutex
	units     int // admitted requests + detached computations in flight
	closing   bool
	drained   chan struct{}
	drainedup bool // drained already closed
}

// NewPlanner builds a planner. Policy instances are built per estimate
// computation (see Planner.policies); cross-request reuse of finished
// work is the fingerprint-keyed memory tier's job.
func NewPlanner(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:     cfg,
		metrics: newMetrics(),
		mem:     store.NewMem(cfg.MemBytes, 0),
		decode:  newDecodeCache(),
		tracer: trace.NewTracer(trace.Config{
			Sample: cfg.TraceSample,
			Ring:   cfg.TraceRing,
			SlowN:  cfg.TraceSlowN,
			Log:    cfg.TraceLog,
		}),
		slots:   make(chan struct{}, cfg.Workers),
		drained: make(chan struct{}),
		policies: map[string]func() sim.Policy{
			"sem": func() sim.Policy { return &core.SEM{Cache: rounding.NewCache()} },
			"obl": func() sim.Policy { return &core.OBL{Cache: rounding.NewCache()} },
			"chains": func() sim.Policy {
				return &core.Chains{
					LP1Cache: rounding.NewCache(),
					LP2Cache: rounding.NewLP2Cache(),
				}
			},
			"forest": func() sim.Policy {
				return &core.Forest{Engine: &core.Chains{
					LP1Cache: rounding.NewCache(),
					LP2Cache: rounding.NewLP2Cache(),
				}}
			},
			"layered": func() sim.Policy {
				return &core.Layered{Inner: &core.SEM{Cache: rounding.NewCache()}}
			},
			"greedy":         func() sim.Policy { return baseline.Greedy{} },
			"greedy-prec":    func() sim.Policy { return baseline.GreedyPrec{} },
			"sequential":     func() sim.Policy { return baseline.Sequential{} },
			"eligible-split": func() sim.Policy { return baseline.EligibleSplit{} },
		},
	}
}

// Config returns the resolved configuration.
func (p *Planner) Config() Config { return p.cfg }

// Tracer returns the planner's request tracer (never nil; disabled when
// no Trace* config was set).
func (p *Planner) Tracer() *trace.Tracer { return p.tracer }

// obsStage closes one stage span: the elapsed time lands on the request's
// trace context and in the per-stage latency histogram. Stage metrics are
// recorded only for traced requests — library calls and Warmup never
// create a Ctx — so within one /metrics document the stage sums stay
// attributable to the requests the endpoint histograms counted.
func (p *Planner) obsStage(tc *trace.Ctx, s trace.Stage, start time.Time) {
	if tc == nil {
		return
	}
	d := time.Since(start)
	tc.Add(s, d)
	p.metrics.observeStage(s, d)
}

// Metrics returns the current metrics snapshot.
func (p *Planner) Metrics() MetricsSnapshot {
	s := p.metrics.snapshot()
	s.CacheEntries = p.mem.Stats().Entries
	s.RetryAfterS = p.retryAfter().Seconds()
	if p.cfg.Store != nil {
		st := p.cfg.Store.Stats()
		s.StoreEntries = st.Entries
		s.StoreCorrupt = st.CorruptDropped
		s.StoreHandoffQueued = st.HandoffQueued
		s.StoreHandoffDrain = st.HandoffDrained
		s.StoreHandoffDrop = st.HandoffDropped
		s.StoreAntiEntropy = st.AntiEntropyPulled
	}
	if p.tracer.Enabled() {
		ts := p.tracer.Stats()
		s.Traced = ts.Begun
		s.TraceSampled = ts.Sampled
		s.TraceForced = ts.Forced
		if rec := p.tracer.Recorder(); rec != nil {
			rs := rec.Stats()
			s.TraceRingKept = rs.Kept
			s.TraceSlowKept = rs.SlowKept
		}
		if lg := p.tracer.Log(); lg != nil {
			ls := lg.Stats()
			s.TraceLogRecords = ls.Records
			s.TraceLogBytes = ls.Bytes
		}
	}
	return s
}

// Close stops admitting requests and waits for every in-flight unit —
// admitted requests and detached computations — to drain. Safe to call
// more than once.
func (p *Planner) Close() {
	p.draining.Store(true)
	p.lmu.Lock()
	p.closing = true
	if p.units == 0 && !p.drainedup {
		p.drainedup = true
		close(p.drained)
	}
	p.lmu.Unlock()
	<-p.drained
}

// ShuttingDown reports whether Close has been called.
func (p *Planner) ShuttingDown() bool {
	p.lmu.Lock()
	defer p.lmu.Unlock()
	return p.closing
}

// Warmup primes the workspace pool and LP engines with one tiny plan, then
// marks the planner ready. /readyz reports not-ready until it runs: a
// replica that has not yet paged in its solve path serves its first real
// request with a cold-start latency spike a balancer should not see.
func (p *Planner) Warmup() error {
	ins, err := model.New(2, 2, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, nil)
	if err != nil {
		return err
	}
	if _, err := p.computePlan(ins, sched.FingerprintInstance(ins), 0.5, dag.ClassIndependent, nil, nil); err != nil {
		return err
	}
	// A replica with a store also waits for it to be fleet-worthy — disk
	// index rebuilt, startup anti-entropy done — before claiming ready:
	// a rebooting node must come up warm, not merely alive.
	if p.cfg.Store != nil {
		if err := p.cfg.Store.WaitWarm(context.Background()); err != nil {
			return err
		}
	}
	p.ready.Store(true)
	return nil
}

// BeginDrain marks the planner not ready without refusing work. Call it
// before http.Server.Shutdown: the balancer sees /readyz flip and stops
// routing while in-flight (and straggler) requests still complete.
func (p *Planner) BeginDrain() { p.draining.Store(true) }

// Ready reports whether the planner should receive new traffic: warmed up,
// not draining, not shut down.
func (p *Planner) Ready() bool {
	return p.ready.Load() && !p.draining.Load() && !p.ShuttingDown()
}

// begin admits a request into the planner's in-flight set.
func (p *Planner) begin() error {
	p.lmu.Lock()
	if p.closing {
		p.lmu.Unlock()
		return ErrShuttingDown
	}
	p.units++
	p.lmu.Unlock()
	p.metrics.inflight.Add(1)
	return nil
}

func (p *Planner) end() {
	p.metrics.inflight.Add(-1)
	p.untrack()
}

// track registers a detached computation with the drain count. Only call
// it while already holding a unit (the caller's begin) — that ordering is
// what lets the count rise during Close without a zero crossing.
func (p *Planner) track() {
	p.lmu.Lock()
	p.units++
	p.lmu.Unlock()
}

func (p *Planner) untrack() {
	p.lmu.Lock()
	p.units--
	if p.closing && p.units == 0 && !p.drainedup {
		p.drainedup = true
		close(p.drained)
	}
	p.lmu.Unlock()
}

func (p *Planner) release() { <-p.slots }

// pressure is the admission line's fill fraction. It counts only work
// waiting for the planner's pool — cache hits bypass it entirely, so
// brownout sheds exactly the load that LP compute is drowning under.
func (p *Planner) pressure() float64 {
	return float64(p.queued.Load()) / float64(p.cfg.QueueDepth)
}

// degradeAllowed reports whether the configured brownout policy lets a
// plan request of this class be served the LP-free fallback.
func (p *Planner) degradeAllowed(class dag.Class) bool {
	switch p.cfg.DegradedPolicy {
	case DegradeAll:
		return true
	case DegradeIndependent:
		return class == dag.ClassIndependent
	default:
		return false
	}
}

// shouldDegrade is the brownout decision for a plan request: policy allows
// the class and pressure has crossed the threshold.
func (p *Planner) shouldDegrade(class dag.Class) bool {
	return p.degradeAllowed(class) && p.pressure() >= p.cfg.BrownoutThreshold
}

// observeUnitCost folds one computation's wall time into the EWMA that
// prices Retry-After hints. units is the computation's admission cost
// (itemCost).
func (p *Planner) observeUnitCost(units int, d time.Duration) {
	if units <= 0 || d <= 0 {
		return
	}
	per := float64(d) / float64(units)
	for {
		old := p.unitCostNS.Load()
		next := per
		if old != 0 {
			next = 0.8*math.Float64frombits(old) + 0.2*per
		}
		if p.unitCostNS.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter estimates when the backlog will have drained enough for a
// retry to be admitted: queued cost units × compute time per unit ÷ pool
// width, clamped to [1s, 30s]. Before any computation has priced the EWMA
// it falls back to the old constant 1s.
func (p *Planner) retryAfter() time.Duration {
	per := math.Float64frombits(p.unitCostNS.Load())
	q := float64(p.queued.Load())
	d := time.Duration(q * per / float64(p.cfg.Workers))
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

func (p *Planner) overloaded() error {
	return &overloadError{retryAfter: p.retryAfter()}
}

// checkpoint is the solve-boundary stop inside a detached computation: an
// abandoned one (every caller gone) ends before its next expensive phase,
// and the injected ComputeHook (chaos) gets its shot at failing or
// stalling the compute. abandoned may be nil (warmup, degraded serves).
// A chaos-injected failure logs the active trace ID so the fault can be
// tied back to the request that absorbed it.
func (p *Planner) checkpoint(abandoned <-chan struct{}, tc *trace.Ctx) error {
	select {
	case <-abandoned:
		p.metrics.deadlineAbandoned.Add(1)
		return errAbandoned
	default:
	}
	if h := p.cfg.ComputeHook; h != nil {
		if err := h(); err != nil {
			trace.Warn("compute fault injected", "trace", tc.IDString(), "err", err)
			return err
		}
	}
	return nil
}

// spawn runs fn on a detached, drain-tracked goroutine and lands the
// flight with its result. A panic in fn is recovered into an error — one
// poisoned request must 500 its own callers, not crash the server (the
// detached goroutine is outside net/http's per-connection recover) — and
// the flight always finishes, so followers never wait on a dead leader.
// tc (may be nil) is retained across the goroutine: the computation can
// outlive the request that started it, and the pooled Ctx must not be
// recycled under it.
func (p *Planner) spawn(key requestKey, c *flightCall, tc *trace.Ctx, fn func() (any, error)) {
	p.track()
	tc.Retain()
	go func() {
		defer p.untrack()
		defer tc.Release()
		var v any
		err := errFlightAbandoned
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("service: computation panicked: %v", r)
					trace.Error("computation panicked", "trace", tc.IDString(), "panic", fmt.Sprintf("%v", r))
				}
			}()
			v, err = fn()
		}()
		p.flight.finish(key, c, v, err)
	}()
}

// PlanRun is one run of a planned schedule on the wire.
type PlanRun struct {
	Job   int   `json:"job"`
	Steps int64 `json:"steps"`
}

// PlanRequest asks for an LP-rounded oblivious schedule.
type PlanRequest struct {
	Instance *model.Instance `json:"instance"`
	// Target is the per-job log-mass target L of LP1 (independent
	// instances only; default 1/2, the Lemma 1/2 choice).
	Target float64 `json:"target,omitempty"`
	// DeadlineMS is the client's deadline for this request. Past it the
	// server stops working on the request (unless coalesced followers
	// still want the result) and the caller gets a 408. It never enters
	// the cache key: two requests differing only in patience want the
	// same plan.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// PlanResponse is the rounded schedule. Independent instances get the
// LP1(J, L) rounding (Lemma 2); chain instances get the LP2 rounding
// (Lemma 6). Responses are shared between callers; treat as immutable.
type PlanResponse struct {
	Fingerprint string      `json:"fingerprint"`
	Class       string      `json:"class"`
	M           int         `json:"m"`
	N           int         `json:"n"`
	Target      float64     `json:"target,omitempty"`
	TStar       float64     `json:"tstar"`
	LowerBound  float64     `json:"lower_bound,omitempty"`
	Length      int64       `json:"length"`
	Machines    [][]PlanRun `json:"machines"`
	Cached      bool        `json:"cached"`
	Coalesced   bool        `json:"coalesced,omitempty"`
	// Degraded marks a brownout fallback: a greedy list schedule served
	// under overload instead of the LP rounding. Degraded plans carry no
	// TStar/LowerBound certificate and are never cached — a retry after
	// the storm gets the real plan.
	Degraded bool `json:"degraded,omitempty"`
}

// Plan computes (or serves from memory) the rounded schedule for req.
func (p *Planner) Plan(ctx context.Context, req *PlanRequest) (*PlanResponse, error) {
	sv, err := p.planServe(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	resp := &PlanResponse{}
	if err := sv.decode(resp); err != nil {
		return nil, err
	}
	resp.Cached, resp.Coalesced = sv.flags()
	return resp, nil
}

// planServe is Plan for the zero-copy path: it resolves the request to the
// shared pre-encoded frame plus this caller's serving flags, without ever
// materializing a flag-bearing struct copy. The HTTP layer splices the
// frame straight into the response. tc, if non-nil, is the request's
// trace context; the planner records stage spans onto it.
func (p *Planner) planServe(ctx context.Context, req *PlanRequest, tc *trace.Ctx) (served, error) {
	if err := p.begin(); err != nil {
		return served{}, err
	}
	defer p.end()
	start := time.Now()
	sv, err := p.plan(ctx, req, tc)
	p.metrics.observe(kindPlan, time.Since(start), err)
	return sv, err
}

// validatePlan resolves req into its effective parameters: the instance,
// the normalized target (defaulted to the Lemma 1/2 choice, zeroed for
// chains where LP2 has no target knob), and the precedence class. Both the
// single and the batch endpoints go through it, so an item in a batch is
// accepted or rejected by exactly the rules /v1/plan applies.
func (p *Planner) validatePlan(req *PlanRequest) (ins *model.Instance, target float64, class dag.Class, err error) {
	if req == nil || req.Instance == nil {
		return nil, 0, 0, badRequestf("missing instance")
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return nil, 0, 0, err
	}
	ins = req.Instance
	target = req.Target
	if target == 0 {
		target = 0.5
	}
	if math.IsNaN(target) || target < 0 || target > model.LogFailCap {
		// NaN must be rejected explicitly: as a map key it never equals
		// itself, so it would leak singleflight entries and plant
		// unfindable cache entries.
		return nil, 0, 0, badRequestf("target %g outside (0, %g]", target, model.LogFailCap)
	}
	class = ins.Class()
	if class != dag.ClassIndependent && class != dag.ClassChains {
		return nil, 0, 0, badRequestf("planning supports independent and chain instances; got class %v (use /v1/estimate with policy forest or layered)", class)
	}
	if class == dag.ClassChains {
		// LP2 has no target knob: normalize before keying, so the same
		// chain instance under different targets shares one cache entry
		// and one flight instead of recomputing an identical schedule.
		target = 0
	}
	return ins, target, class, nil
}

func (p *Planner) plan(ctx context.Context, req *PlanRequest, tc *trace.Ctx) (served, error) {
	ins, target, class, err := p.validatePlan(req)
	if err != nil {
		return served{}, err
	}
	ctx, cancel := withDeadlineMS(ctx, req.DeadlineMS)
	defer cancel()
	fp := sched.FingerprintInstance(ins)
	tc.SetFingerprint(fp.Hi, fp.Lo)
	key := requestKey{fp: fp, kind: kindPlan, target: target}
	sv, err := p.resolve(ctx, key, work{ins: ins, class: class}, tc, admission{gate: (*Planner).brownoutGate}, nil)
	// Past the brownout threshold (the gate), or when the line filled
	// between the pressure check and admission: under a degrade policy the
	// fallback beats a 429.
	if errors.Is(err, ErrOverloaded) && p.degradeAllowed(class) {
		return p.degradedServe(ins, fp, target, class, tc)
	}
	return sv, err
}

// degradedServe wraps the brownout fallback in a one-off frame. Degraded
// plans are never cached or shared, so their encode is a per-request cold
// encode — metered, like every other cold encode.
func (p *Planner) degradedServe(ins *model.Instance, fp sched.Fingerprint, target float64, class dag.Class, tc *trace.Ctx) (served, error) {
	dstart := time.Now()
	resp := p.degradedPlan(ins, fp, target, class)
	p.obsStage(tc, trace.StageDegrade, dstart)
	frame, err := p.encodeFrame(resp, tc)
	if err != nil {
		return served{}, err
	}
	return newServed(frame, sourceDegraded), nil
}

// computePlan runs the rounding on a pooled workspace. The checkpoint
// before the solve is the last stop for abandoned work (and the chaos
// hook); a solve that starts always finishes — LP solves are finite and
// their result is worth caching even if every caller has gone.
func (p *Planner) computePlan(ins *model.Instance, fp sched.Fingerprint, target float64, class dag.Class, abandoned <-chan struct{}, tc *trace.Ctx) (*PlanResponse, error) {
	if err := p.checkpoint(abandoned, tc); err != nil {
		return nil, err
	}
	start := time.Now()
	ws := p.pool.Get()
	defer p.pool.Put(ws)
	resp := &PlanResponse{
		Fingerprint: fp.String(),
		Class:       class.String(),
		M:           ins.M,
		N:           ins.N,
		Target:      target,
	}
	var asn *sched.Assignment
	switch class {
	case dag.ClassIndependent:
		jobs := make([]int, ins.N)
		for j := range jobs {
			jobs[j] = j
		}
		ws.Begin()
		// The nil cache runs the rounding directly on ws; response-level
		// caching is the planner's memory tier, so a second memo layer
		// here would only hold duplicates.
		r, err := (*rounding.Cache)(nil).RoundLP1Ws(ws, ins, jobs, target)
		if err != nil {
			return nil, err
		}
		asn = r.Assignment
		resp.TStar = r.TFrac
		if target == 0.5 {
			// Lemma 1: E[T_OPT] ≥ max(t*/2, 1) at L = 1/2.
			resp.LowerBound = r.TFrac / 2
			if resp.LowerBound < 1 {
				resp.LowerBound = 1
			}
		}
	case dag.ClassChains:
		chains, err := ins.Chains()
		if err != nil {
			return nil, err
		}
		ws.BeginLP2()
		r, err := (*rounding.LP2Cache)(nil).RoundLP2Ws(ws, ins, chains)
		if err != nil {
			return nil, err
		}
		asn = r.Assignment
		resp.TStar = r.TFrac
	}
	// The LP solve and its rounding are fused inside the workspace Round
	// call, so StageSolve covers both; StageRound is the rounded
	// assignment's serialization into the wire shape.
	p.obsStage(tc, trace.StageSolve, start)
	rstart := time.Now()
	resp.Machines = serializeRuns(asn, &resp.Length)
	p.obsStage(tc, trace.StageRound, rstart)
	p.observeUnitCost(itemCost(ins), time.Since(start))
	return resp, nil
}

// serializeRuns converts an assignment into the wire run lists, recording
// the schedule length into *length.
func serializeRuns(asn *sched.Assignment, length *int64) [][]PlanRun {
	o := asn.Serialize()
	*length = o.Length
	machines := make([][]PlanRun, len(o.Runs))
	for i, runs := range o.Runs {
		row := make([]PlanRun, len(runs))
		for k, r := range runs {
			row[k] = PlanRun{Job: r.Job, Steps: r.Steps}
		}
		machines[i] = row
	}
	return machines
}

// EstimateRequest asks for a Monte Carlo makespan estimate.
type EstimateRequest struct {
	Instance *model.Instance `json:"instance"`
	// Policy is one of sem, obl, chains, forest, layered, greedy,
	// greedy-prec, sequential, eligible-split, or auto/"" (pick by
	// precedence class).
	Policy string `json:"policy,omitempty"`
	// Trials is the Monte Carlo budget (default DefaultTrials, capped at
	// MaxTrials).
	Trials int `json:"trials,omitempty"`
	// Seed makes the estimate reproducible; trial i runs on stream seed+i.
	Seed int64 `json:"seed,omitempty"`
	// Stream asks the HTTP layer for NDJSON progress lines.
	Stream bool `json:"stream,omitempty"`
	// DeadlineMS is the client's deadline; see PlanRequest.DeadlineMS.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// EstimateResponse summarizes the makespan sample.
type EstimateResponse struct {
	Fingerprint string  `json:"fingerprint"`
	Policy      string  `json:"policy"`
	Trials      int     `json:"trials"`
	Seed        int64   `json:"seed"`
	Mean        float64 `json:"mean"`
	Std         float64 `json:"std"`
	Sem         float64 `json:"sem"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	Median      float64 `json:"median"`
	P90         float64 `json:"p90"`
	Cached      bool    `json:"cached"`
	Coalesced   bool    `json:"coalesced,omitempty"`
}

// Progress reports a streamed estimate's partial state.
type Progress struct {
	Done  int     `json:"done"`
	Total int     `json:"total"`
	Mean  float64 `json:"mean"`
}

// classRank orders precedence classes by generality.
func classRank(c dag.Class) int {
	switch {
	case c == dag.ClassIndependent:
		return 0
	case c == dag.ClassChains:
		return 1
	case c.IsForest(): // out-, in-, and mixed forests: SUU-T territory
		return 2
	default:
		return 3
	}
}

// maxClassRank is the most general class each policy accepts (runtime
// checks inside the policies would reject too, but pre-checking turns the
// mistake into a clean 400 instead of a mid-computation failure).
var maxClassRank = map[string]int{
	"sem":            0,
	"obl":            0,
	"greedy":         0,
	"chains":         1,
	"forest":         2,
	"layered":        3,
	"greedy-prec":    3,
	"sequential":     3,
	"eligible-split": 3,
}

// resolvePolicy picks the policy factory for a request.
func (p *Planner) resolvePolicy(name string, class dag.Class) (string, func() sim.Policy, error) {
	if name == "" || name == "auto" {
		switch classRank(class) {
		case 0:
			name = "sem"
		case 1:
			name = "chains"
		case 2:
			name = "forest"
		default:
			name = "layered"
		}
	}
	newPol, ok := p.policies[name]
	if !ok {
		return "", nil, badRequestf("unknown policy %q", name)
	}
	if classRank(class) > maxClassRank[name] {
		return "", nil, badRequestf("policy %q does not support precedence class %v", name, class)
	}
	return name, newPol, nil
}

// Estimate computes (or serves from memory) the Monte Carlo estimate for
// req. onProgress, if non-nil, observes partial means while the estimate
// computes; memory hits and coalesced requests skip straight to the result.
func (p *Planner) Estimate(ctx context.Context, req *EstimateRequest, onProgress func(Progress)) (*EstimateResponse, error) {
	sv, err := p.estimateServe(ctx, req, onProgress, nil)
	if err != nil {
		return nil, err
	}
	resp := &EstimateResponse{}
	if err := sv.decode(resp); err != nil {
		return nil, err
	}
	resp.Cached, resp.Coalesced = sv.flags()
	return resp, nil
}

// estimateServe is Estimate for the zero-copy path; see planServe.
func (p *Planner) estimateServe(ctx context.Context, req *EstimateRequest, onProgress func(Progress), tc *trace.Ctx) (served, error) {
	if err := p.begin(); err != nil {
		return served{}, err
	}
	defer p.end()
	start := time.Now()
	sv, err := p.estimate(ctx, req, onProgress, tc)
	p.metrics.observe(kindEstimate, time.Since(start), err)
	return sv, err
}

// estimateParams validates req and resolves it into its effective
// parameters. ValidateEstimate exposes exactly these checks so the HTTP
// layer can reject a bad stream request before committing a 200.
func (p *Planner) estimateParams(req *EstimateRequest) (trials int, name string, newPol func() sim.Policy, err error) {
	if req == nil || req.Instance == nil {
		return 0, "", nil, badRequestf("missing instance")
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		return 0, "", nil, err
	}
	trials = req.Trials
	if trials == 0 {
		trials = p.cfg.DefaultTrials
	}
	if trials < 0 {
		return 0, "", nil, badRequestf("trials %d must be positive", trials)
	}
	if trials > p.cfg.MaxTrials {
		return 0, "", nil, badRequestf("trials %d over the per-request budget %d", trials, p.cfg.MaxTrials)
	}
	name, newPol, err = p.resolvePolicy(req.Policy, req.Instance.Class())
	if err != nil {
		return 0, "", nil, err
	}
	return trials, name, newPol, nil
}

// ValidateEstimate reports whether req would pass Estimate's validation,
// without computing anything.
func (p *Planner) ValidateEstimate(req *EstimateRequest) error {
	_, _, _, err := p.estimateParams(req)
	return err
}

func (p *Planner) estimate(ctx context.Context, req *EstimateRequest, onProgress func(Progress), tc *trace.Ctx) (served, error) {
	trials, name, newPol, err := p.estimateParams(req)
	if err != nil {
		return served{}, err
	}
	ctx, cancel := withDeadlineMS(ctx, req.DeadlineMS)
	defer cancel()
	ins := req.Instance
	fp := sched.FingerprintInstance(ins)
	tc.SetFingerprint(fp.Hi, fp.Lo)
	key := requestKey{fp: fp, kind: kindEstimate, policy: name, trials: trials, seed: req.Seed}
	return p.resolve(ctx, key, work{ins: ins, newPol: newPol}, tc, admission{}, onProgress)
}

// computeEstimate runs the Monte Carlo in ProgressChunk batches. Batch b
// starts at trial offset o and seeds its stream with seed+o, so the
// concatenated sample is byte-identical to one unchunked MonteCarlo call —
// chunking changes progress granularity, never the estimate. It runs on a
// detached goroutine; each chunk boundary is a checkpoint, so an estimate
// every caller abandoned stops there instead of burning the rest of its
// trial budget. pol is this computation's own instance: its LP caches
// warm up across the request's trials (which all share ins) and die with
// the computation.
func (p *Planner) computeEstimate(ins *model.Instance, fp sched.Fingerprint, name string, pol sim.Policy, trials int, seed int64, abandoned <-chan struct{}, emit func(Progress), tc *trace.Ctx) (*EstimateResponse, error) {
	all := make([]float64, 0, trials)
	for done := 0; done < trials; {
		if err := p.checkpoint(abandoned, tc); err != nil {
			return nil, err
		}
		c := p.cfg.ProgressChunk
		if rest := trials - done; c > rest {
			c = rest
		}
		cstart := time.Now()
		res, err := sim.MonteCarlo(ins, pol, c, seed+int64(done), p.cfg.TrialWorkers)
		p.obsStage(tc, trace.StageSolve, cstart)
		if err != nil {
			return nil, fmt.Errorf("estimate with %s: %w", name, err)
		}
		all = append(all, res.Makespans...)
		done += c
		if done < trials {
			emit(Progress{Done: done, Total: trials, Mean: stats.Mean(all)})
		}
	}
	s := stats.Summarize(all)
	return &EstimateResponse{
		Fingerprint: fp.String(),
		Policy:      name,
		Trials:      trials,
		Seed:        seed,
		Mean:        s.Mean,
		Std:         s.Std,
		Sem:         s.Sem,
		Min:         s.Min,
		Max:         s.Max,
		Median:      s.Median,
		P90:         s.P90,
	}, nil
}
