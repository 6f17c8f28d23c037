package service

import (
	"context"
	"sync"
	"testing"
)

// TestBatchConcurrentSharedFingerprints fires overlapping batches — with
// intra-batch duplicates — and single plans for the same small instance
// set from many goroutines at once. It pins two contracts under -race:
// exactly one computation ever runs per unique fingerprint (observable as
// misses − coalesced on the shared counters: every caller that missed the
// LRU but did not lead a flight was served off shared work), and every
// response, batch or single, is byte-identical to the serial reference.
func TestBatchConcurrentSharedFingerprints(t *testing.T) {
	ctx := context.Background()
	const unique = 6
	reqs := make([]*PlanRequest, unique)
	want := make([]string, unique)
	serial := smallPlanner(nil)
	for i := range reqs {
		reqs[i] = testInstance(t, "uniform", 3, 8, int64(500+i))
		resp, err := serial.Plan(ctx, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonicalPlanJSON(t, resp)
	}

	p := smallPlanner(func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 4096 // the test measures dedupe, not shedding
	})
	var wg sync.WaitGroup
	errCh := make(chan error, 128)
	check := func(i int, got *PlanResponse) {
		if g := canonicalPlanJSON(t, got); g != want[i] {
			t.Errorf("instance %d: concurrent response differs from serial reference\n%s\n%s", i, g, want[i])
		}
	}
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				if g%2 == 0 {
					// A batch of all instances, rotated by goroutine and
					// round, plus a duplicate of its first item.
					items := make([]PlanRequest, 0, unique+1)
					for k := 0; k < unique; k++ {
						items = append(items, *reqs[(g+round+k)%unique])
					}
					items = append(items, items[0])
					resp, err := p.PlanBatch(ctx, &BatchPlanRequest{Items: items})
					if err != nil {
						errCh <- err
						return
					}
					for k, it := range resp.Items {
						if it.Status != "ok" {
							t.Errorf("batch item %d: %s", k, it.Error)
							continue
						}
						idx := (g + round + k) % unique
						if k == unique { // the duplicate tail item
							idx = (g + round) % unique
						}
						check(idx, it.Plan)
					}
				} else {
					idx := (g + round) % unique
					resp, err := p.Plan(ctx, reqs[idx])
					if err != nil {
						errCh <- err
						return
					}
					check(idx, resp)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := p.Metrics()
	if computes := snap.CacheMisses - snap.Coalesced; computes != unique {
		t.Fatalf("computes = %d, want exactly %d (misses=%d coalesced=%d hits=%d)",
			computes, unique, snap.CacheMisses, snap.Coalesced, snap.CacheHits)
	}
	if snap.CacheHitRate > 1 {
		t.Fatalf("hit rate %v > 1", snap.CacheHitRate)
	}
	if snap.BatchItems != snap.BatchCached+snap.BatchComputed+snap.BatchShared+snap.BatchErrors {
		t.Fatalf("batch item accounting does not reconcile: %+v", snap)
	}
	if snap.BatchErrors != 0 || snap.InFlight != 0 {
		t.Fatalf("errors/in-flight after drain: %+v", snap)
	}
}
