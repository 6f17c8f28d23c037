package rounding

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/workload"
)

// phase1LP1 solves LP1(jobs, L) from the all-slack basis with the
// two-phase Solve, bypassing every starting basis the workspace would
// construct: the reference warm and crash starts are checked against.
func phase1LP1(t *testing.T, ins *model.Instance, jobs []int, L float64) float64 {
	t.Helper()
	ref := NewWorkspace()
	p, err := ref.buildLP1(ins, jobs, L)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ref.solver.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("phase-1 reference: %v %v", sol, err)
	}
	return sol.Obj
}

// shrinkChain drives a workspace through SEM's exact access pattern —
// solve on a job set, drop a random subset, double the target — and at
// every round compares the (warm- or crash-started) objective against a
// phase-1 solve of the identical problem. It returns how many chain links
// (rounds extending the previous one) there were, and how many of them
// the warm path finished.
func shrinkChain(t *testing.T, ins *model.Instance, rng *rand.Rand, rounds int) (warm, links int) {
	t.Helper()
	ws := NewWorkspace()
	ws.Begin()
	jobs := make([]int, ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	L := 0.5
	for round := 1; round <= rounds && len(jobs) > 0; round++ {
		// Crash-started solves also finish on the warm path; only a solve
		// that extends the chain counts as a warm link.
		link := ws.chainCompatible(ins, jobs, L)
		warmBefore := ws.Solver().WarmSolves
		_, tstar, basis, err := ws.solveLP1(ins, jobs, L, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if link {
			links++
			if ws.Solver().WarmSolves > warmBefore {
				warm++
			}
		}
		tcold := phase1LP1(t, ins, jobs, L)
		if diff := math.Abs(tstar - tcold); diff > 1e-6*(1+math.Abs(tcold)) {
			t.Fatalf("round %d (k=%d, L=%g): warm t* = %.9g, cold t* = %.9g (diff %g)",
				round, len(jobs), L, tstar, tcold, diff)
		}
		ws.advanceChain(ins, jobs, L, basis)
		// Survivors: each job kept with probability 0.35 (SEM's doubly
		// exponential survivor decay is even steeper; this keeps chains
		// alive a few rounds longer to exercise more warm links).
		var surv []int
		for _, j := range jobs {
			if rng.Float64() < 0.35 {
				surv = append(surv, j)
			}
		}
		jobs = surv
		L *= 2
	}
	return warm, links
}

// TestWarmMatchesColdAcrossFamilies is the LP1 warm-start property test:
// across shrinking-subset/doubling-target chains on every Table-1 family —
// including the degenerate specialist family, whose exactly-tied rates
// make every warm install land on a massively degenerate face — the
// warm-started solve's t* must match a phase-1 solve's to 1e-6, and the
// warm path must actually engage on chain links, or the test proves
// nothing.
func TestWarmMatchesColdAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	warm, total := 0, 0
	for _, family := range []string{"uniform", "skill", "specialist", "specialist-degen", "volunteer"} {
		for rep := 0; rep < 3; rep++ {
			ins, err := workload.Generate(workload.Spec{
				Family: family, M: 8, N: 24, Seed: int64(100*rep + 7), Groups: 4,
			})
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			w, n := shrinkChain(t, ins, rng, 5)
			warm += w
			total += n
		}
	}
	if warm == 0 {
		t.Fatalf("warm path never engaged across %d chain links", total)
	}
	t.Logf("warm solves on %d of %d chain links", warm, total)
}

// TestChainedRoundingDeterministic: RoundLP1Chained must give byte-identical
// assignments for identical chains, with or without a cache in between —
// the property Monte Carlo determinism across worker counts rests on.
func TestChainedRoundingDeterministic(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 6, N: 18, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	chain := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		{1, 4, 7, 11, 16},
		{4, 11},
	}
	run := func(c *Cache) []*LP1Result {
		ws := NewWorkspace()
		ws.Begin()
		var out []*LP1Result
		L := 0.5
		for _, jobs := range chain {
			r, err := c.RoundLP1Chained(ws, ins, jobs, L)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
			L *= 2
		}
		return out
	}
	base := run(nil)
	cache := NewCache()
	first := run(cache)  // populates the cache
	second := run(cache) // replays from the cache
	for li := range chain {
		for _, other := range [][]*LP1Result{first, second} {
			a, b := base[li].Assignment, other[li].Assignment
			for i := 0; i < ins.M; i++ {
				for j := 0; j < ins.N; j++ {
					if a.X[i][j] != b.X[i][j] {
						t.Fatalf("link %d: assignment diverges at machine %d job %d: %d vs %d",
							li, i, j, a.X[i][j], b.X[i][j])
					}
				}
			}
		}
	}
}

// TestCacheBounded hammers the cache with random per-trial job subsets —
// SEM's insertion pattern over a long Monte Carlo run — and asserts the
// entry count stays bounded and the pinned full-set entry survives.
func TestCacheBounded(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 4, N: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const capEntries = 64
	c := NewCacheCap(capEntries)
	ws := NewWorkspace()
	full := make([]int, ins.N)
	for j := range full {
		full[j] = j
	}
	if _, err := c.RoundLP1Ws(ws, ins, full, 0.5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	jobs := make([]int, 0, ins.N)
	for trial := 0; trial < 10000; trial++ {
		jobs = jobs[:0]
		for j := 0; j < ins.N; j++ {
			if rng.Intn(2) == 0 {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			jobs = append(jobs, rng.Intn(ins.N))
		}
		// Random doubling targets reduce cross-trial key collisions so the
		// stress actually exercises eviction.
		l := math.Pow(2, float64(rng.Intn(6)-1))
		if _, err := c.RoundLP1Ws(ws, ins, jobs, l); err != nil {
			t.Fatal(err)
		}
		if got := c.Len(); got > capEntries {
			t.Fatalf("trial %d: cache grew to %d entries, cap %d", trial, got, capEntries)
		}
	}
	// The pinned full-set entry must have survived every eviction sweep.
	key := cacheKey{ins: ins, l: 0.5, n: ins.N, h: hashJobs(full)}
	c.mu.Lock()
	e, ok := c.m[key]
	c.mu.Unlock()
	if !ok || !e.pinned {
		t.Fatalf("pinned full-set entry evicted (present=%v)", ok)
	}
	if c.Len() < capEntries/2 {
		t.Fatalf("cache ended at %d entries — eviction is discarding far more than it should", c.Len())
	}
}

// TestHashJobsDistinct: distinct subsets must get distinct keys — a
// collision silently aliases two LP results. 64 mixed bits make collisions
// astronomically unlikely; this guards against a mixing bug, not bad luck.
func TestHashJobsDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := make(map[uint64]string)
	record := func(jobs []int) {
		h := hashJobs(jobs)
		enc := ""
		for _, j := range jobs {
			enc += string(rune(j+1)) + ","
		}
		if prev, ok := seen[h]; ok && prev != enc {
			t.Fatalf("hash collision: %q and %q both map to %#x", prev, enc, h)
		}
		seen[h] = enc
	}
	// Adjacent subsets (off-by-one ids, swapped neighbors) and random ones.
	for n := 1; n <= 12; n++ {
		jobs := make([]int, n)
		for i := range jobs {
			jobs[i] = i
		}
		record(jobs)
		for i := range jobs {
			jobs[i]++
			record(jobs)
			jobs[i]--
		}
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(20)
		jobs := make([]int, n)
		for i := range jobs {
			jobs[i] = rng.Intn(256)
		}
		record(jobs)
	}
}

// TestCacheSharesBasisWithPlainEntries: a chain's first link must share
// its cache entry with plain RoundLP1Ws callers of the same subproblem
// (it is the same crash-started, deterministic solve), and every cached
// entry must carry a basis so chains can always be seeded from hits.
func TestCacheSharesBasisWithPlainEntries(t *testing.T) {
	ins, err := workload.Generate(workload.Spec{Family: "uniform", M: 4, N: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, ins.N)
	for j := range full {
		full[j] = j
	}
	c := NewCache()
	plain, err := c.RoundLP1Ws(NewWorkspace(), ins, full, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Basis) == 0 {
		t.Fatal("plain cache compute recorded no basis")
	}
	ws := NewWorkspace()
	ws.Begin()
	chained, err := c.RoundLP1Chained(ws, ins, full, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if chained != plain {
		t.Fatal("chain's first link did not reuse the plain cache entry")
	}
	if c.Len() != 1 {
		t.Fatalf("expected 1 shared entry, cache holds %d", c.Len())
	}
}
