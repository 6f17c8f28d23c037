package rounding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/model"
)

func randomInstance(rng *rand.Rand, m, n int, g *dag.DAG) *model.Instance {
	q := make([][]float64, m)
	for i := range q {
		q[i] = make([]float64, n)
		for j := range q[i] {
			q[i][j] = 0.02 + 0.96*rng.Float64()
		}
	}
	ins, err := model.New(m, n, q, g)
	if err != nil {
		panic(err)
	}
	return ins
}

func TestSolveLP1SingleJob(t *testing.T) {
	// One machine, one job, q=0.5 (ℓ=1), L=1/2: ℓ'=1/2, so x ≥ 1 ⇒ t*=1.
	ins, err := model.New(1, 1, [][]float64{{0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, tstar, err := SolveLP1(ins, []int{0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tstar-1) > 1e-6 || math.Abs(x[0][0]-1) > 1e-6 {
		t.Fatalf("t*=%g x=%g, want 1, 1", tstar, x[0][0])
	}
}

func TestSolveLP1SplitsLoad(t *testing.T) {
	// Two identical machines, two identical jobs with ℓ = L = 1:
	// each job needs one step; optimum t* = 1 (machine i takes job i).
	ins, err := model.New(2, 2, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tstar, err := SolveLP1(ins, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tstar-1) > 1e-6 {
		t.Fatalf("t* = %g, want 1", tstar)
	}
}

func TestSolveLP1Errors(t *testing.T) {
	ins, _ := model.New(1, 1, [][]float64{{0.5}}, nil)
	if _, _, err := SolveLP1(ins, []int{0}, 0); err == nil {
		t.Fatal("L=0 must error")
	}
	if _, _, err := SolveLP1(ins, []int{5}, 1); err == nil {
		t.Fatal("bad job must error")
	}
}

func checkLP1Post(t *testing.T, ins *model.Instance, jobs []int, L float64, r *LP1Result) {
	t.Helper()
	inSet := make(map[int]bool)
	for _, j := range jobs {
		inSet[j] = true
	}
	for _, j := range jobs {
		mass := 0.0
		for i := 0; i < ins.M; i++ {
			mass += math.Min(ins.L[i][j], L) * float64(r.Assignment.X[i][j])
		}
		if mass+1e-6 < L {
			t.Fatalf("job %d rounded mass %g < L=%g", j, mass, L)
		}
	}
	for j := 0; j < ins.N; j++ {
		if inSet[j] {
			continue
		}
		for i := 0; i < ins.M; i++ {
			if r.Assignment.X[i][j] != 0 {
				t.Fatalf("job %d outside subset has assignment", j)
			}
		}
	}
	loadBound := int64(math.Ceil(6*r.TFrac-1e-7)) + int64(r.Repairs)
	for i := 0; i < ins.M; i++ {
		if l := r.Assignment.Load(i); l > loadBound {
			t.Fatalf("machine %d load %d exceeds ⌈6t*⌉+repairs = %d (t*=%g)",
				i, l, loadBound, r.TFrac)
		}
	}
}

func TestRoundLP1PostConditions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(5), 1+rng.Intn(8)
		ins := randomInstance(rng, m, n, nil)
		// Random subset and a target from the SEM doubling family.
		var jobs []int
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			jobs = []int{0}
		}
		L := math.Pow(2, float64(rng.Intn(5)-1)) // 1/2 .. 8
		r, err := RoundLP1(ins, jobs, L)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		checkLP1Post(t, ins, jobs, L, r)
		if r.Repairs > 0 {
			t.Logf("seed %d: %d repairs (unexpected but tolerated)", seed, r.Repairs)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundLP1EmptySubset(t *testing.T) {
	ins, _ := model.New(1, 2, [][]float64{{0.5, 0.5}}, nil)
	r, err := RoundLP1(ins, nil, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length != 0 || r.TFrac != 0 {
		t.Fatalf("empty subset should be trivial, got %+v", r)
	}
}

func TestRoundLP1HeterogeneousMachines(t *testing.T) {
	// Specialist structure: machine i is good at job i, terrible at the
	// other. The LP must route each job to its specialist; load stays ~1.
	q := [][]float64{
		{0.01, 0.999},
		{0.999, 0.01},
	}
	ins, err := model.New(2, 2, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RoundLP1(ins, []int{0, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkLP1Post(t, ins, []int{0, 1}, 0.5, r)
	if r.TFrac > 1+1e-6 {
		t.Fatalf("t* = %g; specialists should give t* ≤ 1", r.TFrac)
	}
}

func TestCacheHitsAndEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ins := randomInstance(rng, 3, 5, nil)
	c := NewCache()
	a, err := c.RoundLP1(ins, []int{0, 1, 2, 3, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RoundLP1(ins, []int{0, 1, 2, 3, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache should return the identical result")
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d", c.Len())
	}
	// Different L is a different key.
	if _, err := c.RoundLP1(ins, []int{0, 1, 2, 3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache len %d", c.Len())
	}
	// Nil cache passes through.
	var nilCache *Cache
	if _, err := nilCache.RoundLP1(ins, []int{0}, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveRoundingLoadBlowup(t *testing.T) {
	// A spread-out fractional optimum: many jobs, one fast machine and
	// many mediocre ones. Naive per-entry ceiling inflates load well
	// beyond the flow rounding on at least some machine.
	rng := rand.New(rand.NewSource(9))
	m, n := 6, 24
	ins := randomInstance(rng, m, n, nil)
	jobs := make([]int, n)
	for j := range jobs {
		jobs[j] = j
	}
	flow, err := RoundLP1(ins, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	xfrac, tstar, err := SolveLP1(ins, jobs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := RoundFractionalNaive(ins, jobs, 0.5, xfrac, tstar)
	if err != nil {
		t.Fatal(err)
	}
	checkLP1Post(t, ins, jobs, 0.5, flow)
	// Naive must still satisfy mass, but its load bound is weaker.
	for _, j := range jobs {
		mass := 0.0
		for i := 0; i < m; i++ {
			mass += math.Min(ins.L[i][j], 0.5) * float64(naive.Assignment.X[i][j])
		}
		if mass+1e-6 < 0.5 {
			t.Fatalf("naive rounding broke mass for job %d", j)
		}
	}
	if naive.Length < flow.Length {
		t.Logf("note: naive length %d < flow length %d on this instance",
			naive.Length, flow.Length)
	}
}

func chainsOf(n, per int) (*dag.DAG, []dag.Chain) {
	g := dag.New(n)
	var chains []dag.Chain
	for s := 0; s < n; s += per {
		var c dag.Chain
		for j := s; j < s+per && j < n; j++ {
			if j > s {
				g.MustEdge(j-1, j)
			}
			c = append(c, j)
		}
		chains = append(chains, c)
	}
	return g, chains
}

func TestRoundLP2PostConditions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		per := 1 + rng.Intn(4)
		nc := 1 + rng.Intn(4)
		n := per * nc
		g, chains := chainsOf(n, per)
		ins := randomInstance(rng, m, n, g)
		r, err := RoundLP2(ins, chains)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Mass ≥ 1 under capped ℓ'.
		for j := 0; j < n; j++ {
			mass := 0.0
			for i := 0; i < m; i++ {
				mass += math.Min(ins.L[i][j], 1) * float64(r.Assignment.X[i][j])
			}
			if mass+1e-6 < 1 {
				t.Logf("seed %d: job %d mass %g < 1", seed, j, mass)
				return false
			}
		}
		// Load ≤ ⌈6t*⌉ + repairs.
		bound := int64(math.Ceil(6*r.TFrac-1e-7)) + int64(r.Repairs)
		for i := 0; i < m; i++ {
			if r.Assignment.Load(i) > bound {
				t.Logf("seed %d: load %d > %d", seed, r.Assignment.Load(i), bound)
				return false
			}
		}
		// Chain length ≤ 7t* + repairs (Lemma 6's accounting).
		for _, c := range chains {
			var sum int64
			for _, j := range c {
				if r.JobLength[j] < 1 {
					t.Logf("seed %d: job %d length %d < 1", seed, j, r.JobLength[j])
					return false
				}
				sum += r.JobLength[j]
			}
			if float64(sum) > 7*r.TFrac+float64(r.Repairs)+1e-6 {
				t.Logf("seed %d: chain length %d > 7t*=%g", seed, sum, 7*r.TFrac)
				return false
			}
		}
		// Per-job length cap from the flow edge capacities.
		for j := 0; j < n; j++ {
			if r.Assignment.JobLength(j) > r.JobLength[j] {
				t.Logf("seed %d: job %d length inconsistent", seed, j)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundLP2Errors(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(1)), 2, 4, nil)
	// Duplicate job.
	if _, err := RoundLP2(ins, []dag.Chain{{0, 1}, {1, 2, 3}}); err == nil {
		t.Fatal("duplicate job must error")
	}
	// Out of range.
	if _, err := RoundLP2(ins, []dag.Chain{{0, 1, 2, 7}}); err == nil {
		t.Fatal("out-of-range job must error")
	}
}

func TestRoundLP2Subset(t *testing.T) {
	// Chains covering only jobs {0,1}: job 2 and 3 must stay unassigned
	// (this is how SUU-T rounds one decomposition block at a time).
	ins := randomInstance(rand.New(rand.NewSource(4)), 2, 4, nil)
	r, err := RoundLP2(ins, []dag.Chain{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r.Assignment.X[i][2] != 0 || r.Assignment.X[i][3] != 0 {
			t.Fatal("uncovered jobs must have zero assignment")
		}
	}
	if r.JobLength[2] != 0 || r.JobLength[3] != 0 {
		t.Fatal("uncovered jobs must have zero length")
	}
	if r.JobLength[0] < 1 || r.JobLength[1] < 1 {
		t.Fatal("covered jobs must have length ≥ 1")
	}
	// Empty chain list is trivial.
	r2, err := RoundLP2(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Load != 0 {
		t.Fatal("empty chains should yield empty assignment")
	}
}

func TestLP2CacheReuse(t *testing.T) {
	g, chains := chainsOf(4, 2)
	ins := randomInstance(rand.New(rand.NewSource(6)), 2, 4, g)
	c := NewLP2Cache()
	a, err := c.RoundLP2(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RoundLP2(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("LP2 cache should return the identical result")
	}
	var nilCache *LP2Cache
	if _, err := nilCache.RoundLP2(ins, chains); err != nil {
		t.Fatal(err)
	}
}

func TestLP2LowerBoundSanity(t *testing.T) {
	// A chain of length 5 with perfect machines still needs ≥ 5 steps:
	// t* must be at least the chain length.
	g, chains := chainsOf(5, 5)
	q := [][]float64{{0.01, 0.01, 0.01, 0.01, 0.01}}
	ins, err := model.New(1, 5, q, g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, tstar, err := SolveLP2(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	if tstar < 5-1e-6 {
		t.Fatalf("t* = %g < chain length 5", tstar)
	}
}

func TestGroupOf(t *testing.T) {
	cases := []struct {
		l    float64
		want int
	}{
		{1, 0}, {0.5, -1}, {0.25, -2}, {2, 1}, {3, 1}, {0.75, -1},
	}
	for _, c := range cases {
		if got := groupOf(c.l); got != c.want {
			t.Errorf("groupOf(%g) = %d, want %d", c.l, got, c.want)
		}
	}
}
