// Package service turns the SUU library into a concurrent planning
// service: the request/response half of cmd/suud. It holds only the
// server; the load generator that drives it is internal/load.
//
// The pieces, in request order:
//
//   - Planner accepts plan requests (LP-rounded oblivious schedules) and
//     estimate requests (Monte Carlo makespan distributions) and runs them
//     on a bounded worker pool. Each computation borrows a
//     rounding.Workspace from a shared pool, so the LP engine's
//     zero-allocation steady state — built for Monte Carlo workers —
//     carries over to request serving unchanged.
//   - Admission control sits in front of the pool: at most QueueDepth
//     requests may be queued or running; request QueueDepth+1 is rejected
//     immediately with ErrOverloaded (HTTP 429) instead of building an
//     unbounded goroutine backlog. Load shedding this early keeps p99
//     bounded when the offered load exceeds capacity — the property the
//     suuload open-loop harness (internal/load) exists to measure.
//   - Duplicate in-flight requests coalesce: requests are content-addressed
//     by sched.Fingerprint (a canonical 128-bit hash of (m, n, q, prec)),
//     and a singleflight group keyed by (fingerprint, kind, params) lets
//     one computation serve every concurrent caller asking the same
//     question.
//   - One pipeline, resolve, serves every endpoint: a memory hit returns
//     at once; a miss joins the key's flight; the flight leader re-checks
//     memory, then reads Config.Store, and only then pays admission,
//     computes, encodes once, and keeps the result. The memory tier is a
//     store.Mem the planner owns — a sharded, byte-budgeted LRU
//     (Config.MemBytes) of canonical response frames under the same
//     content-addressed keys — so repeated instances, the common case for
//     a planner fronting a fleet of similar workloads, are served from
//     memory without a decode. Config.Store is whatever lies below it:
//     the disk log, a replicated store over it, or a test's store.
//   - Batches amortize the HTTP and JSON overhead: /v1/plan/batch
//     (Planner.PlanBatch) takes a list of plan items per request and
//     resolves each independently — memory hits immediately, duplicates
//     deduped within the batch by fingerprint before any flight
//     registration, the rest fanned across the same worker pool and
//     coalesced against in-flight singles and other batches. Items fail
//     individually (validation, per-item cost budget, compute errors, a
//     missed DeadlineMS in partial-results mode), never the batch; item
//     payloads are the canonical frames, with the serving source
//     ("cached"/"computed"/"coalesced") in the per-item envelope. Batch
//     admission is the first cut of cost-model backpressure: each
//     to-be-computed item charges ⌈n·m/1024⌉ units (1 unit = the n=64,
//     m=16 reference) against the same queue budget single requests count
//     against, so a batch of heavy instances sheds load like the many
//     requests it is.
//   - Metrics counts everything (hits, misses, coalesced, rejected,
//     in-flight, per-item batch outcomes, a batch-size distribution) and
//     records per-endpoint latency in stats.Histogram; Server exposes it
//     all as JSON on /metrics next to /healthz, /readyz, /v1/plan,
//     /v1/plan/batch, and /v1/estimate (which can stream NDJSON progress).
//     Within one /metrics document the batch item counters reconcile
//     exactly (items = cached + computed + coalesced + degraded + errors)
//     and cache_hit_rate ≤ 1 holds with per-item batch accounting folded
//     in.
//
// # Resilience
//
// Overload has two regimes. Below Config.BrownoutThreshold (a fraction of
// QueueDepth) the service rejects excess load with 429 and an adaptive
// Retry-After computed from live queue depth times a smoothed per-unit
// compute cost — the hint tracks how long the backlog actually takes to
// drain. Above the threshold, Config.DegradedPolicy may switch eligible
// requests to graceful degradation: instead of a 429 they receive a cheap
// LP-free greedy fallback plan (internal/baseline list scheduling) marked
// "degraded": true with no certificate (TStar and LowerBound zero).
// Degraded plans never enter the memory tier, the flight table, or the
// store — they are emergency output, not the canonical answer.
// DegradeIndependent limits fallbacks to independent-job instances, where
// greedy list scheduling is a principled approximation; DegradeAll extends
// them to precedence-constrained instances whose fallback ignores chain
// order (openly uncertified); DegradeNever keeps pure rejection.
//
// Requests may carry DeadlineMS, a client-side give-up hint. The deadline
// becomes a per-request context deadline, and the computation it admitted
// checks for abandonment at checkpoints (while queued for a worker slot,
// before an LP solve, between Monte Carlo chunks). A computation every
// waiter has abandoned stops early and refunds its queue charge — unless
// other callers coalesced onto it, in which case it runs to completion for
// them. A started LP solve always finishes and is kept: solves are the
// expensive indivisible unit, so their work is never thrown away.
//
// Config.ComputeHook is the fault-injection seam: the planner calls it at
// every compute checkpoint, and internal/faults supplies hooks that stall,
// error, or panic at seeded-deterministic rates. Panics — injected or real
// — are isolated per computation and surface as errors to every waiter,
// never as a crashed process.
//
// Lifecycle: /readyz is distinct from /healthz. It reports 503 until
// Planner.Warmup() has pushed one tiny plan through the full stack, and
// flips back to 503 the moment BeginDrain() or Close() starts shutdown —
// before the listener closes — so load balancers stop routing while
// in-flight requests drain. Every accepted request reaches a terminal
// response during drain; Close waits for detached work.
//
// Library callers (Plan, Estimate, PlanBatch) get a struct decoded from
// the served frame, their own to keep. The HTTP layer never decodes or
// re-serializes a served payload (see Wire format).
//
// # Wire format
//
// Every plan and estimate payload is served from a canonical frame: the
// compact (non-indented) json.Marshal encoding of the response struct
// with the serving flags (Cached, Coalesced) false, produced exactly once
// when the response is computed. The memory tier, the in-flight
// coalescing table, and the durable store all carry that frame — no
// decoded struct rides along — so the same bytes flow through every
// tier:
//
//   - /v1/plan and /v1/estimate write the frame directly, splicing the
//     caller's serving flags over the constant-size "cached":false tail —
//     a memory or coalesced hit performs no json.Marshal or Unmarshal of
//     the payload.
//   - /v1/plan/batch streams a hand-written envelope and copies each
//     item's pre-encoded frame verbatim; item payloads are byte-identical
//     to the canonical encoding regardless of how the item was resolved.
//   - The durable store persists the frame inside its envelope
//     (json.RawMessage, never re-marshaled). Bytes read from disk or a
//     peer come from outside the process, so they are fully decoded and
//     checked once (decodeStored) before they enter memory; from there a
//     hit re-enters the zero-copy path with the exact bytes the original
//     computation produced.
//
// The contract this buys: payload bytes are byte-stable across the single
// endpoint, the batch endpoint, and store round-trips — byte-for-byte
// reproducible for a given instance and parameters — which makes
// responses content-addressable and proxy-cacheable. Single-plan and
// error responses carry an exact Content-Length (sized writes, no
// chunking); batch and streaming-estimate responses stream through pooled
// fixed-size buffers, so response memory cost is bounded by the buffer,
// not the batch. /metrics splits payload_bytes_served by
// encoded_cache/cold_encode, counts frames_spliced and cold_encodes, and
// distributes encode cost in the encode_ns histogram.
//
// The request side mirrors this: the HTTP handlers capture each request's
// instance as raw JSON and resolve it through a byte-keyed
// decoded-instance LRU (decodecache.go) — a repeated instance is decoded
// once, ever, with a byte-for-byte comparison guarding every hit, so the
// cache can only change performance, never results.
// instance_decode_hits / instance_decode_misses in /metrics ledger it.
//
// # Observability
//
// Every request the HTTP layer accepts can carry a trace context
// (internal/trace): a 128-bit ID plus per-stage duration/count
// aggregates for the pipeline stages — decode, queue, flight,
// store.mem, store.disk, store.peer, store.miss, solve, round, encode,
// degrade. Contexts are pooled and refcounted; with tracing disabled
// (Config.TraceSample == 0 and no ring/log), Tracer.Begin returns nil
// and every downstream call is a nil-check — the library default, and
// what keeps the zero-copy serving benchmarks at their committed
// allocation counts.
//
// The same trace data surfaces four ways, all views of one ledger:
//
//   - /metrics grows a "stages" map of per-stage latency summaries plus
//     trace counters (traced, sampled, forced, ring/slow kept, log
//     records/bytes). GET /metrics?format=prom renders the identical
//     snapshot as Prometheus text exposition (suu_ prefix, counters as
//     _total, latencies as summaries with quantile labels and _sum/_count,
//     stages as one suu_stage_seconds{stage="..."} family). Because stage
//     observation happens only for traced requests and inside the same
//     endpoint clock, the stage _sum lines (decode excepted — it is
//     measured in the handler, before the planner's clock starts)
//     reconcile against the endpoint latency _sum within one scrape.
//   - Sampled responses carry an X-Suu-Trace header: the trace ID, the
//     serving source (cached/computed/coalesced/degraded/batch), the
//     total, and each nonzero stage as <stage>=<µs>[x<count>]. The client
//     surfaces it as Result.Trace; internal/load parses it
//     (trace.ParseHeader) into a per-source server-side attribution table
//     — where server time went, split by how the request was served.
//   - /debug/traces serves a ring of recent traces and a slowest-N list
//     (filterable by op and outcome), and Config.TraceLog appends every
//     kept trace to a CRC-framed binary log (trace.ReadLog decodes it,
//     tolerating torn tails) — the record half of record/replay.
//   - Requests between replicas propagate the ID: peer store fetches and
//     replication fan-out stamp X-Suu-Trace-Id, so a fleet-wide search
//     for one ID finds every hop it touched.
//
// Head sampling (Config.TraceSample) decides at Begin; errors, degraded
// responses, and entries into the slowest-N list are force-kept, so the
// traces most worth reading survive any sampling rate.
package service
