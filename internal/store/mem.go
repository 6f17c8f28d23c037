package store

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Mem is the in-memory backend: a byte-budgeted sharded LRU
// (power-of-two shards picked by mixed key bits, a recency list per
// shard) over opaque []byte values. The service owns one as its only
// in-memory response tier; tests also pass one in as a shared store.
type Mem struct {
	shards []memShard
	mask   uint64

	hits, misses, puts, putSkips atomic.Uint64
}

type memShard struct {
	mu       sync.Mutex
	entries  map[Key]*list.Element
	order    *list.List // front = most recent
	bytes    int64
	maxBytes int64
}

type memEntry struct {
	key Key
	val []byte
}

// NewMem builds a mem store with maxBytes of payload budget spread over
// power-of-two shards (16 when shards <= 0).
func NewMem(maxBytes int64, shards int) *Mem {
	if shards <= 0 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	m := &Mem{shards: make([]memShard, n), mask: uint64(n - 1)}
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range m.shards {
		m.shards[i].entries = make(map[Key]*list.Element)
		m.shards[i].order = list.New()
		m.shards[i].maxBytes = per
	}
	return m
}

func (m *Mem) shardOf(k Key) *memShard {
	return &m.shards[mix(k.Hi^mix(k.Lo))&m.mask]
}

// Name implements PlanStore.
func (m *Mem) Name() string { return "mem" }

// Get implements PlanStore. The returned slice is the interned value;
// callers must not mutate it.
func (m *Mem) Get(_ context.Context, k Key) ([]byte, string, error) {
	s := m.shardOf(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		m.misses.Add(1)
		return nil, "", ErrNotFound
	}
	s.order.MoveToFront(el)
	v := el.Value.(*memEntry).val
	s.mu.Unlock()
	m.hits.Add(1)
	return v, TierMem, nil
}

// GetLocal implements PlanStore; mem is always local.
func (m *Mem) GetLocal(ctx context.Context, k Key) ([]byte, string, error) {
	return m.Get(ctx, k)
}

// Put implements PlanStore: insert-if-absent with LRU eviction to budget.
func (m *Mem) Put(_ context.Context, k Key, v []byte) error {
	s := m.shardOf(k)
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		m.putSkips.Add(1)
		return nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	s.entries[k] = s.order.PushFront(&memEntry{key: k, val: cp})
	s.bytes += int64(len(cp))
	for s.bytes > s.maxBytes && s.order.Len() > 1 {
		back := s.order.Back()
		e := back.Value.(*memEntry)
		s.order.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= int64(len(e.val))
	}
	s.mu.Unlock()
	m.puts.Add(1)
	return nil
}

// PutLocal implements PlanStore.
func (m *Mem) PutLocal(ctx context.Context, k Key, v []byte) error {
	return m.Put(ctx, k, v)
}

// Keys implements PlanStore.
func (m *Mem) Keys(limit int) []Key {
	var out []Key
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for k := range s.entries {
			out = append(out, k)
			if limit > 0 && len(out) >= limit {
				s.mu.Unlock()
				return out
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Stats implements PlanStore.
func (m *Mem) Stats() Stats {
	st := Stats{
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
		Puts:     m.puts.Load(),
		PutSkips: m.putSkips.Load(),
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.BytesLive += s.bytes
		s.mu.Unlock()
	}
	return st
}

// WaitWarm implements PlanStore; mem has nothing to recover.
func (m *Mem) WaitWarm(context.Context) error { return nil }

// Close implements PlanStore.
func (m *Mem) Close() error { return nil }
