package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

func TestMemLRUEviction(t *testing.T) {
	// One shard so the LRU order is global and the budget is exact.
	m := NewMem(100, 1)
	ctx := context.Background()
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40) }
	for i := 0; i < 3; i++ {
		if err := m.Put(ctx, tkey(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 3×40 = 120 > 100: the oldest entry is gone, the two newest remain.
	if _, _, err := m.Get(ctx, tkey(0)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest entry survived: %v", err)
	}
	for i := 1; i < 3; i++ {
		v, tier, err := m.Get(ctx, tkey(i))
		if err != nil || tier != TierMem || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d: %v %q", i, err, tier)
		}
	}
	st := m.Stats()
	if st.Entries != 2 || st.BytesLive != 80 {
		t.Fatalf("stats %+v", st)
	}

	// Recency matters: touch key 1, insert key 3, key 2 is now the victim.
	if _, _, err := m.Get(ctx, tkey(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(ctx, tkey(3), val(3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Get(ctx, tkey(2)); !errors.Is(err, ErrNotFound) {
		t.Fatal("LRU victim was not the least recently used")
	}
	if _, _, err := m.Get(ctx, tkey(1)); err != nil {
		t.Fatal("recently used entry evicted")
	}
}

func TestMemDupPutAndKeys(t *testing.T) {
	m := NewMem(1<<20, 4)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := m.Put(ctx, tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Put(ctx, tkey(4), tval(4)); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Puts != 10 || st.PutSkips != 1 || st.Entries != 10 {
		t.Fatalf("stats %+v", st)
	}
	if got := m.Keys(0); len(got) != 10 {
		t.Fatalf("keys %d", len(got))
	}
	if got := m.Keys(3); len(got) != 3 {
		t.Fatalf("limited keys %d", len(got))
	}
}

// TestMemConcurrent hammers a small mem store from many goroutines with
// overlapping keys and one hot key, under -race: every read returns the
// bytes put for its key, and afterwards each shard's recency list, map
// and byte count agree and respect the budget.
func TestMemConcurrent(t *testing.T) {
	const budget = 4 << 10
	m := NewMem(budget, 4)
	ctx := context.Background()
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64+i%7) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g + i) % 100
				if i%4 == 0 {
					k = 0 // the hot key: concurrent re-puts and reads of one entry
				}
				if i%3 == 0 {
					if err := m.Put(ctx, tkey(k), val(k)); err != nil {
						t.Error(err)
						return
					}
				} else if v, _, err := m.Get(ctx, tkey(k)); err == nil && !bytes.Equal(v, val(k)) {
					t.Errorf("key %d served %d bytes of another value", k, len(v))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		var live int64
		for el := s.order.Front(); el != nil; el = el.Next() {
			live += int64(len(el.Value.(*memEntry).val))
		}
		if s.order.Len() != len(s.entries) || live != s.bytes {
			t.Errorf("shard %d: list %d entries / %d bytes, map %d entries / %d bytes", i, s.order.Len(), live, len(s.entries), s.bytes)
		}
		if s.bytes > s.maxBytes && s.order.Len() > 1 {
			t.Errorf("shard %d over budget: %d > %d bytes", i, s.bytes, s.maxBytes)
		}
		s.mu.Unlock()
	}
	if st := m.Stats(); st.BytesLive > budget {
		t.Fatalf("store over budget: %+v", st)
	}
}
