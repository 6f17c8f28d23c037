package service

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/sched"
	"repro/internal/store"
)

// planStoreInstances builds n distinct small instances.
func planStoreInstances(t *testing.T, n int) []*PlanRequest {
	t.Helper()
	reqs := make([]*PlanRequest, n)
	for i := range reqs {
		reqs[i] = testInstance(t, "uniform", 4, 10, int64(100+i))
	}
	return reqs
}

// samePlan compares the result-bearing fields, ignoring the serving
// provenance flags (Cached/Coalesced) that legitimately differ between a
// computed response and a store-served one.
func samePlan(a, b *PlanResponse) bool {
	if a.Fingerprint != b.Fingerprint || a.TStar != b.TStar || a.Length != b.Length ||
		a.LowerBound != b.LowerBound || len(a.Machines) != len(b.Machines) {
		return false
	}
	for i := range a.Machines {
		if len(a.Machines[i]) != len(b.Machines[i]) {
			return false
		}
		for j := range a.Machines[i] {
			if a.Machines[i][j] != b.Machines[i][j] {
				return false
			}
		}
	}
	return true
}

// TestPlannerStoreRestartWarm is the durability acceptance test: plan a
// workload against a disk-backed store, tear the whole service down,
// rebuild it on the same directory, and replay the workload. Every answer
// must come off the disk tier — zero plans recomputed — byte-for-byte
// equal to the originals.
func TestPlannerStoreRestartWarm(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	reqs := planStoreInstances(t, n)

	st1, err := store.Open(dir, store.DiskConfig{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p1 := smallPlanner(func(c *Config) { c.Store = st1 })
	first := make([]*PlanResponse, n)
	for i, req := range reqs {
		if first[i], err = p1.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m1 := p1.Metrics()
	if m1.PlansComputed != n {
		t.Fatalf("first run computed %d, want %d", m1.PlansComputed, n)
	}
	if m1.StoreEntries != n {
		t.Fatalf("store entries %d, want %d", m1.StoreEntries, n)
	}
	p1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: fresh store over the same directory, fresh planner
	// (empty LRU), same workload.
	st2, err := store.Open(dir, store.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2 := smallPlanner(func(c *Config) { c.Store = st2 })
	if err := p2.Warmup(); err != nil { // exercises the WaitWarm readiness gate
		t.Fatal(err)
	}
	defer p2.Close()
	for i, req := range reqs {
		resp, err := p2.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("restart plan %d not marked served-from-shared-work", i)
		}
		if !samePlan(first[i], resp) {
			t.Fatalf("restart plan %d differs from the original", i)
		}
	}
	m2 := p2.Metrics()
	if m2.PlansComputed != 0 {
		t.Fatalf("restart recomputed %d plans, want 0", m2.PlansComputed)
	}
	if m2.StoreDiskHits != n {
		t.Fatalf("store_disk_hits=%d, want %d", m2.StoreDiskHits, n)
	}
	if m2.StoreCorrupt != 0 {
		t.Fatalf("store_corrupt_dropped=%d", m2.StoreCorrupt)
	}
	if m2.StoreDiskLatency.Count != n {
		t.Fatalf("disk-tier latency histogram: %+v", m2.StoreDiskLatency)
	}

	// The LRU was primed by the read-through: a second pass never touches
	// the store again.
	for _, req := range reqs {
		if _, err := p2.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	m3 := p2.Metrics()
	if m3.StoreDiskHits != n || m3.PlansComputed != 0 {
		t.Fatalf("second pass: disk_hits=%d computed=%d", m3.StoreDiskHits, m3.PlansComputed)
	}

	// The batch path reads through the same store: a batch of the same
	// items on a third fresh planner computes nothing.
	st3, err := store.Open(dir, store.DiskConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	p3 := smallPlanner(func(c *Config) { c.Store = st3; c.MaxBatchItems = n })
	defer p3.Close()
	items := make([]PlanRequest, n)
	for i, r := range reqs {
		items[i] = *r
	}
	bresp, err := p3.PlanBatch(context.Background(), &BatchPlanRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if bresp.OK != n || bresp.Errors != 0 || bresp.Computed != 0 {
		t.Fatalf("batch over warm store: %+v", bresp)
	}
	if m := p3.Metrics(); m.PlansComputed != 0 || m.StoreDiskHits != n {
		t.Fatalf("batch metrics: computed=%d disk_hits=%d", m.PlansComputed, m.StoreDiskHits)
	}
	for i := range bresp.Items {
		if bresp.Items[i].Plan == nil || !samePlan(first[i], bresp.Items[i].Plan) {
			t.Fatalf("batch item %d differs from the original", i)
		}
	}
}

// TestStoreSharedAcrossPlanners pins the fleet value proposition in one
// process: two planners over one store compute each plan once, total.
func TestStoreSharedAcrossPlanners(t *testing.T) {
	st := store.NewMem(1<<22, 4)
	defer st.Close()
	reqs := planStoreInstances(t, 5)
	pA := smallPlanner(func(c *Config) { c.Store = st })
	defer pA.Close()
	pB := smallPlanner(func(c *Config) { c.Store = st })
	defer pB.Close()
	for _, req := range reqs {
		if _, err := pA.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	respA, err := pA.Plan(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		resp, err := pB.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !samePlan(respA, resp) {
			t.Fatal("planners disagree through the shared store")
		}
	}
	mA, mB := pA.Metrics(), pB.Metrics()
	if mA.PlansComputed != 5 || mB.PlansComputed != 0 {
		t.Fatalf("computed A=%d B=%d, want 5/0", mA.PlansComputed, mB.PlansComputed)
	}
	if mB.StoreMemHits != 5 {
		t.Fatalf("B mem hits %d", mB.StoreMemHits)
	}
	if mB.StoreMemLatency.Count != 5 {
		t.Fatalf("B mem-tier latency histogram: %+v", mB.StoreMemLatency)
	}
}

// TestDegradedPlansNeverPersisted pins the satellite fix: a brownout
// fallback must not reach the memory tier or any store tier, or a moment
// of overload would haunt every replica from disk.
func TestDegradedPlansNeverPersisted(t *testing.T) {
	st := store.NewMem(1<<20, 1)
	defer st.Close()
	p := smallPlanner(func(c *Config) { c.Store = st })
	defer p.Close()

	key := requestKey{kind: kindPlan, policy: "lp1", target: 0.5}
	keep := func(resp *PlanResponse) { p.keep(key, resp, testFrame(t, resp), nil) }
	keep(&PlanResponse{Degraded: true, Length: 7})
	if got := st.Stats(); got.Puts != 0 || got.Entries != 0 {
		t.Fatalf("degraded plan persisted: %+v", got)
	}
	if _, ok := p.memGet(key); ok {
		t.Fatal("degraded plan entered the memory tier")
	}

	// The same call with a certified plan does persist — the guard is
	// specific, not a dead store.
	keep(&PlanResponse{Length: 7})
	if got := st.Stats(); got.Puts != 1 || got.Entries != 1 {
		t.Fatalf("certified plan not persisted: %+v", got)
	}
	// And a degraded response never overwrites a certified one.
	keep(&PlanResponse{Degraded: true})
	frame, ok := p.storeGet(key, nil)
	if !ok {
		t.Fatal("stored plan unreadable")
	}
	var got PlanResponse
	if err := json.Unmarshal(frame, &got); err != nil || got.Degraded || got.Length != 7 {
		t.Fatalf("degraded response overwrote the stored plan: %+v (%v)", got, err)
	}
}

// TestStoreKeyDerivation pins that every result-determining request
// parameter separates the content address — a collision here would serve
// a wrong payload to a different request — and that the client's
// deadline, which determines nothing, does not: requests differing only
// in patience share one memory entry.
func TestStoreKeyDerivation(t *testing.T) {
	base := requestKey{fp: fpOf(1), kind: kindPlan, policy: "lp1", target: 0.5, trials: 100, seed: 42}
	variants := map[string]func(k *requestKey){
		"fingerprint hi": func(k *requestKey) { k.fp.Hi++ },
		"fingerprint lo": func(k *requestKey) { k.fp.Lo++ },
		"kind":           func(k *requestKey) { k.kind = kindEstimate },
		"policy":         func(k *requestKey) { k.policy = "lp2" },
		"target":         func(k *requestKey) { k.target = 0.75 },
		"trials":         func(k *requestKey) { k.trials = 101 },
		"seed":           func(k *requestKey) { k.seed = 43 },
	}
	seen := map[store.Key]string{storeKeyOf(base): "base"}
	for name, mutate := range variants {
		k := base
		mutate(&k)
		sk := storeKeyOf(k)
		if prev, dup := seen[sk]; dup {
			t.Fatalf("%s variant collides with %s: %v", name, prev, sk)
		}
		seen[sk] = name
	}
	// Deterministic: the address is a pure function of the request.
	if storeKeyOf(base) != storeKeyOf(base) {
		t.Fatal("key derivation not deterministic")
	}

	p := smallPlanner(nil)
	defer p.Close()
	ctx := context.Background()
	plan := testInstance(t, "uniform", 3, 6, 5)
	est := &EstimateRequest{Instance: plan.Instance, Policy: "sem", Trials: 8, Seed: 1}
	for _, ms := range []int64{0, 60000} {
		plan.DeadlineMS, est.DeadlineMS = ms, ms
		pr, err := p.Plan(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		er, err := p.Estimate(ctx, est, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ms > 0 && (!pr.Cached || !er.Cached) {
			t.Fatalf("deadline_ms %d changed the key: plan cached %v, estimate cached %v", ms, pr.Cached, er.Cached)
		}
	}
}

// TestStoreDecodeMismatchIsMiss pins the envelope check: bytes stored for
// one kind never decode as another, so even a key collision degrades to a
// recompute instead of a mistyped response.
func TestStoreDecodeMismatchIsMiss(t *testing.T) {
	b, err := encodeStored(kindPlan, testFrame(t, &PlanResponse{Length: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStored(kindEstimate, b); err == nil {
		t.Fatal("plan bytes decoded as an estimate")
	}
	frame, err := decodeStored(kindPlan, b)
	if err != nil {
		t.Fatal(err)
	}
	var got PlanResponse
	if err := json.Unmarshal(frame, &got); err != nil || got.Length != 3 {
		t.Fatal("roundtrip lost the payload")
	}
	if _, err := decodeStored(kindPlan, []byte("not json")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestUndecodableStoredRecordIsNeverServed: a store that holds bytes no
// envelope decode accepts under a request's key costs one computation.
// Puts skip keys a store already holds, so the bad record stays put; the
// computed frame lands in memory, which answers every later request — the
// bad bytes are never served and nothing is computed twice.
func TestUndecodableStoredRecordIsNeverServed(t *testing.T) {
	st := store.NewMem(1<<20, 1)
	defer st.Close()
	p := smallPlanner(func(c *Config) { c.Store = st })
	defer p.Close()
	req := testInstance(t, "uniform", 4, 10, 77)
	key := requestKey{fp: sched.FingerprintInstance(req.Instance), kind: kindPlan, target: 0.5}
	bad := []byte(`{"v":1,"kind":1,"body":{"fingerprint":"not this plan"}}`)
	if err := st.Put(context.Background(), storeKeyOf(key), bad); err != nil {
		t.Fatal(err)
	}

	first, err := p.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Fingerprint != sched.FingerprintInstance(req.Instance).String() {
		t.Fatalf("first request served the undecodable record: %+v", first)
	}
	for i := 0; i < 10; i++ {
		resp, err := p.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached || !samePlan(first, resp) {
			t.Fatalf("request %d: cached=%v, same plan %v", i, resp.Cached, samePlan(first, resp))
		}
	}
	m := p.Metrics()
	if m.PlansComputed != 1 || m.CacheHits != 10 || m.StoreMisses != 1 {
		t.Fatalf("computed=%d hits=%d store_misses=%d, want 1/10/1", m.PlansComputed, m.CacheHits, m.StoreMisses)
	}
	if v, _, err := st.Get(context.Background(), storeKeyOf(key)); err != nil || string(v) != string(bad) {
		t.Fatalf("store record replaced (%v): the put no longer skips held keys — update this test's doc", err)
	}
}
