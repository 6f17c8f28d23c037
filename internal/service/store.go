package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// Config.Store sits under the memory tier as a read-through /
// write-behind tier: a flight leader checks it after memory misses and
// before burning a worker slot, and persists what it computes. The store
// holds the canonical frames the memory tier holds, wrapped in a small
// envelope; its Key is a content address derived from the full
// requestKey, so every node in a fleet derives identical keys for
// identical requests. The memory tier uses the same Key.

// storeKeyOf derives the 128-bit content address for a request: two
// differently-salted SplitMix64 lanes over the fingerprint and every
// result-determining parameter. Both lanes absorb the full policy string
// and the full seed — a collision here would serve a wrong payload, so
// the address must separate everything the result depends on.
func storeKeyOf(k requestKey) store.Key {
	pf := uint64(0xcbf29ce484222325) // FNV-1a over the policy name
	for i := 0; i < len(k.policy); i++ {
		pf = (pf ^ uint64(k.policy[i])) * 0x100000001b3
	}
	hi := fpMixLocal(k.fp.Hi ^ 0x9e3779b97f4a7c15)
	hi = fpMixLocal(hi ^ k.fp.Lo)
	hi = fpMixLocal(hi ^ uint64(k.kind))
	hi = fpMixLocal(hi ^ math.Float64bits(k.target))
	hi = fpMixLocal(hi ^ uint64(k.trials))
	hi = fpMixLocal(hi ^ uint64(k.seed))
	hi = fpMixLocal(hi ^ pf)
	lo := fpMixLocal(k.fp.Lo ^ 0xbf58476d1ce4e5b9)
	lo = fpMixLocal(lo ^ k.fp.Hi)
	lo = fpMixLocal(lo ^ uint64(k.kind)<<8)
	lo = fpMixLocal(lo ^ math.Float64bits(k.target)<<1 ^ math.Float64bits(k.target)>>63)
	lo = fpMixLocal(lo ^ uint64(k.seed)<<16 ^ uint64(k.trials))
	lo = fpMixLocal(lo ^ pf<<1)
	return store.Key{Hi: hi, Lo: lo}
}

// fpMixLocal is the SplitMix64 finalizer (the service package's copy; the
// canonical one lives next to sched.Fingerprint).
func fpMixLocal(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// storedEnvelope frames a persisted response: a version, the request
// kind, and the canonical payload frame — the same bytes the memory tier
// splices into responses, persisted verbatim so a disk or peer hit skips
// re-encoding exactly like a memory hit. The kind check on decode means a
// (vanishingly unlikely) key collision between a plan and an estimate
// degrades to a store miss, never a mistyped response.
type storedEnvelope struct {
	V    int             `json:"v"`
	Kind uint8           `json:"kind"`
	Body json.RawMessage `json:"body"`
}

const storedEnvelopeV = 1

// encodeStored wraps an already-canonical payload frame; the payload is
// never re-marshaled (json.RawMessage passes through verbatim).
func encodeStored(kind uint8, frame json.RawMessage) ([]byte, error) {
	return json.Marshal(&storedEnvelope{V: storedEnvelopeV, Kind: kind, Body: frame})
}

// decodeStored validates an envelope read from outside the process (disk
// or a peer) and returns its payload frame: the envelope must carry this
// version and kind, the frame must decode as that kind's response, and it
// must end in the canonical tail every kept frame has. Only then may the
// bytes enter the memory tier, whose hits are served without a decode.
func decodeStored(kind uint8, b []byte) ([]byte, error) {
	var env storedEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	if env.V != storedEnvelopeV || env.Kind != kind {
		return nil, fmt.Errorf("stored envelope v%d kind %d does not match request kind %d", env.V, env.Kind, kind)
	}
	var resp any
	switch kind {
	case kindPlan:
		resp = &PlanResponse{}
	case kindEstimate:
		resp = &EstimateResponse{}
	default:
		return nil, fmt.Errorf("unknown stored kind %d", kind)
	}
	if err := json.Unmarshal(env.Body, resp); err != nil {
		return nil, err
	}
	if spliceAt(env.Body) < 0 {
		return nil, fmt.Errorf("stored %d-byte frame lacks the canonical tail", len(env.Body))
	}
	return env.Body, nil
}

// storeGet reads through Config.Store for key. On a hit the frame also
// lands in the memory tier, so the next request for the key never reaches
// the store at all. Runs under context.Background(): the store's own
// timeouts bound a peer fetch, and a result is worth keeping even if this
// caller's deadline is about to expire (same reasoning as detached
// computations). The request's trace rides along two ways: the tier that
// answered becomes a stage span (store.mem / store.disk / store.peer, or
// store.miss when every tier came up empty), and the trace context — and
// through it the bare trace ID — flows into the store stack so a peer
// fetch carries X-Suu-Trace-Id across the fleet.
func (p *Planner) storeGet(key requestKey, tc *trace.Ctx) ([]byte, bool) {
	st := p.cfg.Store
	if st == nil {
		return nil, false
	}
	start := time.Now()
	sk := storeKeyOf(key)
	b, tier, err := st.Get(trace.NewContext(context.Background(), tc), sk)
	if err != nil {
		p.metrics.storeMisses.Add(1)
		p.obsStage(tc, trace.StageStoreMiss, start)
		return nil, false
	}
	elapsed := time.Since(start)
	frame, err := decodeStored(key.kind, b)
	if err != nil {
		// Undecodable content is a quarantine case the checksum cannot
		// catch (e.g. a schema change): a miss, so the leader recomputes.
		// Puts skip keys a store already holds, so the bad record stays
		// where it is; the recomputed frame is kept in memory, which
		// answers every later request for the key until it is evicted.
		p.metrics.storeMisses.Add(1)
		p.obsStage(tc, trace.StageStoreMiss, start)
		return nil, false
	}
	p.metrics.observeStore(tier, elapsed)
	if tc != nil {
		stage := trace.StageStoreMem
		switch tier {
		case store.TierDisk:
			stage = trace.StageStoreDisk
		case store.TierPeer:
			stage = trace.StageStorePeer
		}
		tc.Add(stage, elapsed)
		p.metrics.observeStage(stage, elapsed)
	}
	_ = p.mem.Put(context.Background(), sk, frame) // Mem.Put cannot fail
	return frame, true
}

// keep puts a freshly computed response's frame — encoded exactly once
// across memory, disk, and peers — into the memory tier and Config.Store.
// Degraded brownout fallbacks are never kept — they are placeholders a
// retry should replace, and keeping one would let a moment of overload
// haunt every later request, and every replica from disk. Store errors
// are counted, not surfaced: a full or failing store degrades the fleet
// to compute-only, it does not fail requests.
func (p *Planner) keep(key requestKey, resp any, frame []byte, tc *trace.Ctx) {
	if pr, ok := resp.(*PlanResponse); ok && pr.Degraded {
		return
	}
	sk := storeKeyOf(key)
	_ = p.mem.Put(context.Background(), sk, frame) // Mem.Put cannot fail
	st := p.cfg.Store
	if st == nil {
		return
	}
	b, err := encodeStored(key.kind, frame)
	if err != nil {
		p.metrics.storePutErrors.Add(1)
		return
	}
	// Only the bare trace ID crosses into the put: the fan-out to peers
	// is asynchronous and must never hold the pooled trace context.
	if err := st.Put(trace.WithID(context.Background(), tc.ID()), sk, b); err != nil {
		p.metrics.storePutErrors.Add(1)
		trace.Warn("store put failed", "trace", tc.IDString(), "err", err)
	}
}
