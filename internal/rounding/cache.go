package rounding

import (
	"math"
	"sync"

	"repro/internal/dag"
	"repro/internal/model"
)

// DefaultCacheCap is the entry bound NewCache applies. SEM inserts every
// random per-trial surviving-job subset it solves, so an unbounded cache
// grows for the whole life of a long Monte Carlo run; a few hundred
// entries capture all the reuse that actually occurs (full-set solves and
// the small-n subset collisions) while bounding memory.
const DefaultCacheCap = 512

// Cache memoizes RoundLP1 results. The first SUU-I-SEM round and the whole
// of SUU-I-OBL solve LP1 on the full job set with a fixed target, which is
// identical across Monte Carlo trials; caching it removes the dominant LP
// cost from every trial after the first. Later (random) subset solves are
// cached too, keyed by the warm-start chain that produced them (see
// RoundLP1Chained), so repeated survivor patterns — common at small n —
// are also free after first sight.
//
// The cache is bounded: full-set entries (the deterministic, expensive,
// shared-by-every-trial solves) are pinned, everything else is evicted in
// cheap map-order sweeps once the cap is reached. Values are pure
// functions of their keys, so eviction can never change a result, only
// cost a recompute. Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	m   map[cacheKey]cacheEntry
	cap int
}

type cacheEntry struct {
	res    *LP1Result
	pinned bool
}

// cacheKey is a fixed-size comparable key: instance identity, target, job
// count, and a 64-bit hash of the job ids (plus warm-chain history for
// chained entries). Replacing the old comma-joined string key removes a
// string build + allocation from every lookup in the trial hot path; a
// hash collision would silently alias two subsets, but at 64 mixed bits
// the chance is negligible against the ~thousands of entries a run sees.
type cacheKey struct {
	ins *model.Instance
	l   float64
	n   int
	h   uint64
}

// NewCache returns an empty cache with the default entry bound.
func NewCache() *Cache { return NewCacheCap(DefaultCacheCap) }

// NewCacheCap returns an empty cache bounded to roughly cap entries
// (pinned full-set entries may exceed it; they are few and deterministic).
// Non-positive caps fall back to DefaultCacheCap.
func NewCacheCap(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCacheCap
	}
	return &Cache{m: make(map[cacheKey]cacheEntry), cap: cap}
}

func (c *Cache) lookup(key cacheKey) (*LP1Result, bool) {
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	return e.res, ok
}

// store inserts the entry, sweeping out unpinned entries in map order when
// the cap is hit. Map iteration starts at a random bucket, so the sweep is
// an O(evicted) pseudo-random eviction — cheap, and harmless to
// correctness because every value is recomputable from its key.
func (c *Cache) store(key cacheKey, r *LP1Result, pinned bool) {
	c.mu.Lock()
	if len(c.m) >= c.cap {
		target := c.cap - c.cap/8
		for k, e := range c.m {
			if len(c.m) < target {
				break
			}
			if !e.pinned {
				delete(c.m, k)
			}
		}
	}
	c.m[key] = cacheEntry{res: r, pinned: pinned}
	c.mu.Unlock()
}

// RoundLP1 returns the memoized rounding for (ins, jobs, L), computing it
// on first use with a throwaway workspace. Results are shared; callers
// must not mutate them.
func (c *Cache) RoundLP1(ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		return RoundLP1(ins, jobs, L)
	}
	return c.RoundLP1Ws(NewWorkspace(), ins, jobs, L)
}

// RoundLP1Ws is RoundLP1 computing misses on the caller's workspace (a
// crash-started solve — the workspace's warm chain is not consulted, so
// the cached value is a pure function of the key).
func (c *Cache) RoundLP1Ws(ws *Workspace, ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		return ws.roundLP1(ins, jobs, L, false)
	}
	key := cacheKey{ins: ins, l: L, n: len(jobs), h: hashJobs(jobs)}
	if r, ok := c.lookup(key); ok {
		return r, nil
	}
	// Compute outside the lock: concurrent misses may duplicate work but
	// never block each other on a multi-second LP solve.
	r, err := ws.roundLP1(ins, jobs, L, false)
	if err != nil {
		return nil, err
	}
	c.store(key, r, len(jobs) == ins.N)
	return r, nil
}

// RoundLP1Chained returns the rounding for (ins, jobs, L) solved as the
// next link of ws's warm chain, and advances the chain past it. The cache
// key includes the chain history, so an entry is only reused by trials
// whose whole re-solve chain matches — which makes the cached value a
// deterministic function of the key even though chain-warm and
// crash-started solves may legitimately land on different optimal
// vertices. A chain's first link
// has no history and shares its entry with RoundLP1Ws callers.
func (c *Cache) RoundLP1Chained(ws *Workspace, ins *model.Instance, jobs []int, L float64) (*LP1Result, error) {
	if c == nil {
		r, err := ws.roundLP1(ins, jobs, L, true)
		if err != nil {
			return nil, err
		}
		ws.advanceChain(ins, jobs, L, r.Basis)
		return r, nil
	}
	key := cacheKey{ins: ins, l: L, n: len(jobs), h: ws.chainKeyHash(jobs)}
	if r, ok := c.lookup(key); ok {
		ws.advanceChain(ins, jobs, L, r.Basis)
		return r, nil
	}
	r, err := ws.roundLP1(ins, jobs, L, true)
	if err != nil {
		return nil, err
	}
	c.store(key, r, ws.chainHash == 0 && len(jobs) == ins.N)
	ws.advanceChain(ins, jobs, L, r.Basis)
	return r, nil
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap reports the entry bound.
func (c *Cache) Cap() int { return c.cap }

// FNV-1a constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashJobs is FNV-1a over the little-endian bytes of each job id, finished
// with a SplitMix64-style avalanche so short id lists still spread over
// the whole key space.
func hashJobs(jobs []int) uint64 {
	h := uint64(fnvOffset64)
	for _, j := range jobs {
		v := uint64(uint32(j))
		h = (h ^ (v & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
		h = (h ^ ((v >> 24) & 0xff)) * fnvPrime64
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer, a strong 64→64 bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix2 combines two hashes order-dependently.
func mix2(a, b uint64) uint64 {
	return mix64(a ^ (b + 0x9e3779b97f4a7c15))
}

// chainMix folds one solved chain link (its job-set hash and target) into
// the running chain hash.
func chainMix(chain, jobsHash uint64, l float64) uint64 {
	return mix64(mix2(chain, jobsHash) ^ math.Float64bits(l))
}

// LP2Cache memoizes RoundLP2 results. SUU-C's LP2 assignment depends only
// on the instance, its chain structure, and (under SUU-T's cross-block
// warm chain) the sequence of blocks solved before it — never on a random
// outcome — so one solve serves every Monte Carlo trial, and the set of
// distinct (block, history) pairs per instance is tiny (one per SUU-T
// decomposition block), so no bound is needed. Keys mix in the workspace's
// LP2 chain history the way LP1's chained keys do, which keeps every
// trial's rounding a deterministic function of its block sequence even
// though chain-warm and crash-started solves may land on different
// optimal vertices.
// Safe for concurrent use.
type LP2Cache struct {
	mu sync.Mutex
	m  map[lp2Key]*LP2Result
}

// lp2Key hashes the chain structure (ids with per-chain separators) the
// same way cacheKey hashes job subsets.
type lp2Key struct {
	ins *model.Instance
	n   int // total jobs across chains
	h   uint64
}

func hashChains(chains []dag.Chain) (uint64, int) {
	h := uint64(fnvOffset64)
	n := 0
	for _, ch := range chains {
		for _, j := range ch {
			v := uint64(uint32(j))
			h = (h ^ (v & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
			h = (h ^ ((v >> 24) & 0xff)) * fnvPrime64
			n++
		}
		h = (h ^ 0x1ff) * fnvPrime64 // chain separator, outside the id byte range
	}
	return mix64(h), n
}

// NewLP2Cache returns an empty cache.
func NewLP2Cache() *LP2Cache {
	return &LP2Cache{m: make(map[lp2Key]*LP2Result)}
}

// RoundLP2 returns the memoized rounding for (ins, chains), computing it on
// first use. Results are shared; callers must not mutate them.
func (c *LP2Cache) RoundLP2(ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	if c == nil {
		return RoundLP2(ins, chains)
	}
	return c.RoundLP2Ws(NewWorkspace(), ins, chains)
}

// RoundLP2Ws is RoundLP2 computing misses on the caller's workspace — a
// Monte Carlo worker's LP2 miss reuses its trial stream's solver — solved
// as the next block of the workspace's LP2 warm chain, which it advances
// past the block (on hits too, from the cached basis, so a trial's chain
// state is identical whether its blocks computed or hit).
func (c *LP2Cache) RoundLP2Ws(ws *Workspace, ins *model.Instance, chains []dag.Chain) (*LP2Result, error) {
	h, n := hashChains(chains)
	if c == nil {
		r, err := roundLP2(ins, chains, ws)
		if err != nil {
			return nil, err
		}
		ws.advanceLP2(ins, r.Basis, n, h)
		return r, nil
	}
	key := lp2Key{ins: ins, n: n, h: ws.lp2KeyHash(h)}
	c.mu.Lock()
	if r, ok := c.m[key]; ok {
		c.mu.Unlock()
		ws.advanceLP2(ins, r.Basis, n, h)
		return r, nil
	}
	c.mu.Unlock()
	r, err := roundLP2(ins, chains, ws)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = r
	c.mu.Unlock()
	ws.advanceLP2(ins, r.Basis, n, h)
	return r, nil
}
