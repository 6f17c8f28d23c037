package service

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// These tests drive the planner's memory tier through the calls resolve
// itself makes — keep to insert a computed frame, memGet to look one up —
// so the tier is exercised under storeKeyOf keys, as served.

// frameN is a fixed-length stand-in for a response frame, distinct per
// (i, v) so a read can tell whose bytes it got.
func frameN(i, v int) []byte {
	return []byte(fmt.Sprintf(`{"k":%04d,"v":%06d}`, i, v))
}

// withMem swaps p's memory tier for one of maxBytes over the given shard
// count, before p serves anything.
func withMem(p *Planner, maxBytes int64, shards int) {
	p.mem = store.NewMem(maxBytes, shards)
}

func TestPlanCacheLRU(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	flen := int64(len(frameN(0, 0)))
	withMem(p, 4*flen, 1) // one shard, room for 4 frames: eviction order fully observable
	for i := 0; i < 4; i++ {
		p.keep(planKeyN(i), nil, frameN(i, 0), nil)
	}
	if n := p.Metrics().CacheEntries; n != 4 {
		t.Fatalf("cache_entries = %d", n)
	}
	// Touch 0 so 1 becomes LRU, then overflow.
	if f, ok := p.memGet(planKeyN(0)); !ok || !bytes.Equal(f, frameN(0, 0)) {
		t.Fatal("lost entry 0")
	}
	p.keep(planKeyN(4), nil, frameN(4, 0), nil)
	if n := p.Metrics().CacheEntries; n != 4 {
		t.Fatalf("cache_entries after eviction = %d", n)
	}
	if _, ok := p.memGet(planKeyN(1)); ok {
		t.Fatal("entry 1 should have been the LRU victim")
	}
	for _, want := range []int{0, 2, 3, 4} {
		if f, ok := p.memGet(planKeyN(want)); !ok || !bytes.Equal(f, frameN(want, 0)) {
			t.Fatalf("entry %d missing after eviction", want)
		}
	}
	// Keeping a held key again neither grows the tier nor replaces the
	// frame: a key is a content address, so its first frame stands.
	p.keep(planKeyN(4), nil, frameN(4, 1), nil)
	if f, _ := p.memGet(planKeyN(4)); !bytes.Equal(f, frameN(4, 0)) {
		t.Fatalf("re-keep replaced the held frame: %s", f)
	}
	if n := p.Metrics().CacheEntries; n != 4 {
		t.Fatalf("cache_entries after re-keep = %d", n)
	}
	// A degraded plan never enters the tier, not even over a free slot.
	p.keep(planKeyN(5), &PlanResponse{Degraded: true}, frameN(5, 0), nil)
	if _, ok := p.memGet(planKeyN(5)); ok {
		t.Fatal("degraded plan kept in memory")
	}
}

func TestPlanCacheDistinguishesParams(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	fp := fpOf(7)
	keys := []requestKey{
		{fp: fp, kind: kindPlan, target: 0.5},
		{fp: fp, kind: kindPlan, target: 1},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 100, seed: 1},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 100, seed: 2},
		{fp: fp, kind: kindEstimate, policy: "sem", trials: 200, seed: 1},
		{fp: fp, kind: kindEstimate, policy: "obl", trials: 100, seed: 1},
	}
	for i, k := range keys {
		p.keep(k, nil, frameN(i, 0), nil)
	}
	if n := p.Metrics().CacheEntries; n != len(keys) {
		t.Fatalf("cache_entries = %d, want %d", n, len(keys))
	}
	for i, k := range keys {
		f, ok := p.memGet(k)
		if !ok || !bytes.Equal(f, frameN(i, 0)) {
			t.Fatalf("key %d aliased or lost (got %s, %v)", i, f, ok)
		}
	}
}

// TestPlanCacheConcurrentRefresh hammers ONE key with concurrent re-keeps
// and reads: every read must see the one frame the key holds, never a
// later writer's bytes or a torn copy.
func TestPlanCacheConcurrentRefresh(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	withMem(p, 4*int64(len(frameN(0, 0))), 1)
	k := planKeyN(1)
	var (
		mu     sync.Mutex
		winner []byte // the first frame any reader saw
	)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if g%2 == 0 {
					p.keep(k, nil, frameN(1, i), nil)
					continue
				}
				f, ok := p.memGet(k)
				if !ok {
					continue
				}
				mu.Lock()
				if winner == nil {
					winner = append([]byte(nil), f...)
				}
				same := bytes.Equal(f, winner)
				mu.Unlock()
				if !same {
					t.Errorf("key read %s after %s", f, winner)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	f, ok := p.memGet(k)
	if !ok || (winner != nil && !bytes.Equal(f, winner)) {
		t.Fatalf("final read %s (%v), readers saw %s", f, ok, winner)
	}
	if n := p.Metrics().CacheEntries; n != 1 {
		t.Fatalf("cache_entries = %d", n)
	}
}

// TestPlanCacheConcurrent hammers a small memory tier from many
// goroutines with overlapping keys; -race is the assertion, plus every
// read returning its own key's frame and the tier holding its budget.
func TestPlanCacheConcurrent(t *testing.T) {
	p := smallPlanner(nil)
	defer p.Close()
	flen := int64(len(frameN(0, 0)))
	const shards, perShard = 4, 8
	withMem(p, shards*perShard*flen, shards)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := i % 100
				if i%3 == 0 {
					p.keep(planKeyN(key), nil, frameN(key, 0), nil)
				} else if f, ok := p.memGet(planKeyN(key)); ok && !bytes.Equal(f, frameN(key, 0)) {
					t.Errorf("key %d served %s", key, f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := p.Metrics().CacheEntries; n > shards*perShard {
		t.Fatalf("memory tier overflowed its budget: %d entries", n)
	}
	if st := p.mem.Stats(); st.BytesLive > shards*perShard*flen || int64(st.Entries)*flen != st.BytesLive {
		t.Fatalf("memory tier bytes disagree with its entries: %+v", st)
	}
}
