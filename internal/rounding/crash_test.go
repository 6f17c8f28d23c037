package rounding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/workload"
)

// crashCase is one LP1 or LP2 instance the crash bases are checked on.
type crashCase struct {
	name   string
	ins    *model.Instance
	L      float64     // LP1 target; unused for LP2
	chains []dag.Chain // non-nil: solve (LP2) over these chains
}

// crashCases covers the uniform, specialist and chains families plus the
// edge shapes a greedy basis could trip on: one machine, one job, every
// rate capped at the target, and a job only one machine can run.
func crashCases(t *testing.T) []crashCase {
	t.Helper()
	var cases []crashCase
	for _, spec := range []workload.Spec{
		{Family: "uniform", M: 8, N: 24},
		{Family: "uniform", M: 12, N: 40},
		{Family: "specialist", M: 8, N: 24, Groups: 4},
		{Family: "specialist", M: 16, N: 48},
		{Family: "specialist-degen", M: 8, N: 24, Groups: 4},
		{Family: "chains", M: 6, N: 18},
		{Family: "chains", M: 8, N: 32},
		{Family: "uniform", M: 1, N: 12},
		{Family: "uniform", M: 5, N: 1},
		{Family: "chains", M: 1, N: 10},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			spec.Seed = seed
			ins, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/m=%d/n=%d/seed=%d", spec.Family, spec.M, spec.N, seed)
			if ins.Prec != nil {
				chains, err := ins.Chains()
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, crashCase{name: name, ins: ins, chains: chains})
				continue
			}
			for _, L := range []float64{0.5, 4} {
				cases = append(cases, crashCase{name: fmt.Sprintf("%s/L=%g", name, L), ins: ins, L: L})
			}
		}
	}

	// Every rate at or above the target: ℓ′ = L (LP1) and ℓ′ = 1 (LP2)
	// for every pair, so every crash x sits exactly at its cap.
	rng := rand.New(rand.NewSource(5))
	capped := func(m, n int, g *dag.DAG) *model.Instance {
		q := make([][]float64, m)
		for i := range q {
			q[i] = make([]float64, n)
			for j := range q[i] {
				q[i][j] = 0.25 * rng.Float64()
			}
		}
		ins, err := model.New(m, n, q, g)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	cases = append(cases, crashCase{name: "capped", ins: capped(4, 10, nil), L: 0.5})
	g := dag.New(9)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}} {
		g.MustEdge(e[0], e[1])
	}
	cappedChains := capped(3, 9, g)
	chains, err := cappedChains.Chains()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, crashCase{name: "capped-chains", ins: cappedChains, chains: chains})

	// Job 0 has a single capable machine (q = 1 elsewhere), and it is not
	// the machine the other jobs would pick first.
	lone := func(g *dag.DAG) *model.Instance {
		m, n := 4, 8
		q := make([][]float64, m)
		for i := range q {
			q[i] = make([]float64, n)
			for j := range q[i] {
				q[i][j] = 0.1 + 0.8*rng.Float64()
			}
			q[i][0] = 1
		}
		q[m-1][0] = 0.9
		ins, err := model.New(m, n, q, g)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	cases = append(cases, crashCase{name: "lone-machine", ins: lone(nil), L: 0.5})
	g = dag.New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {5, 6}} {
		g.MustEdge(e[0], e[1])
	}
	loneChains := lone(g)
	if chains, err = loneChains.Chains(); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, crashCase{name: "lone-machine-chains", ins: loneChains, chains: chains})
	return cases
}

// build assembles the case's LP on ws and returns it with its crash hint.
func (c crashCase) build(t *testing.T, ws *Workspace) (*lp.Problem, []int) {
	t.Helper()
	if c.chains != nil {
		p, jobs, err := ws.buildLP2(c.ins, c.chains)
		if err != nil {
			t.Fatal(err)
		}
		return p, ws.crashLP2Hint(c.ins, c.chains, jobs)
	}
	jobs := make([]int, c.ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	p, err := ws.buildLP1(c.ins, jobs, c.L)
	if err != nil {
		t.Fatal(err)
	}
	return p, ws.crashLP1Hint(c.ins, jobs, c.L)
}

// solve runs the workspace's own solve path for the case.
func (c crashCase) solve(ws *Workspace) (float64, error) {
	if c.chains != nil {
		_, _, _, tstar, err := ws.solveLP2(c.ins, c.chains)
		return tstar, err
	}
	jobs := make([]int, c.ins.N)
	for j := range jobs {
		jobs[j] = j
	}
	_, tstar, _, err := ws.solveLP1(c.ins, jobs, c.L, false)
	return tstar, err
}

// TestCrashBasisFeasibleAndOptimal is the crash-versus-reference property
// test. For every case, the crash basis must be primal feasible before any
// pivot: installed on the same constraints under a zero objective, it is
// already optimal, so the warm path returns it with zero pivots, and that
// basic solution must satisfy every constraint. Then the workspace's
// crash-started solve must reach the dense phase-1 engine's t* to 1e-7
// relative, on the warm path, with no fall-back to phase 1.
func TestCrashBasisFeasibleAndOptimal(t *testing.T) {
	for _, c := range crashCases(t) {
		ws := NewWorkspace()
		p, hint := c.build(t, ws)

		zero := *p
		zero.C = make([]float64, p.NumVars)
		sol, err := lp.NewSolver().SolveWarm(&zero, hint)
		if err != nil {
			t.Fatalf("%s: zero-objective solve: %v", c.name, err)
		}
		if !sol.Warm || sol.Iters != 0 {
			t.Fatalf("%s: crash basis needed repair (warm=%v, %d pivots)", c.name, sol.Warm, sol.Iters)
		}
		if r := p.Residual(sol.X); r > 1e-9 {
			t.Fatalf("%s: crash basic solution violates a constraint by %g", c.name, r)
		}

		ref, err := (&lp.Solver{Dense: true}).Solve(p)
		if err != nil || ref.Status != lp.Optimal {
			t.Fatalf("%s: dense reference: %v %v", c.name, ref, err)
		}
		tstar, err := c.solve(ws)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if diff := math.Abs(tstar - ref.Obj); diff > 1e-7*math.Max(1, math.Abs(ref.Obj)) {
			t.Fatalf("%s: crash-started t* = %.12g, dense t* = %.12g (diff %g)", c.name, tstar, ref.Obj, diff)
		}
		s := ws.Solver()
		if s.WarmSolves != 1 || s.ColdSolves != 0 || s.WarmFallbacks != 0 {
			t.Fatalf("%s: counters warm=%d cold=%d fallbacks=%d, want 1/0/0",
				c.name, s.WarmSolves, s.ColdSolves, s.WarmFallbacks)
		}
	}
}

// TestColdMixSolvesSkipPhase1 pins the crash start on the planner's three
// cold-mix shapes, solved as the planner solves them (one pooled
// workspace, chain state reset per plan): every t* must match a phase-1
// solve's to 1e-7 relative, and not one solve may fall back to the
// phase-1 path. A silent fall-back would still be correct and would pass
// any loose timing guard, so the counters are the check.
func TestColdMixSolvesSkipPhase1(t *testing.T) {
	ws := NewWorkspace()
	plans := 0
	for _, spec := range []workload.Spec{
		{Family: "uniform", M: 16, N: 64},
		{Family: "specialist", M: 32, N: 128},
		{Family: "chains", M: 16, N: 64},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			spec.Seed = seed
			ins, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var tstar, ref float64
			if ins.Prec != nil {
				chains, err := ins.Chains()
				if err != nil {
					t.Fatal(err)
				}
				ws.BeginLP2()
				r, err := (*LP2Cache)(nil).RoundLP2Ws(ws, ins, chains)
				if err != nil {
					t.Fatal(err)
				}
				tstar, ref = r.TFrac, phase1LP2(t, ins, chains)
			} else {
				jobs := make([]int, ins.N)
				for j := range jobs {
					jobs[j] = j
				}
				ws.Begin()
				r, err := (*Cache)(nil).RoundLP1Ws(ws, ins, jobs, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				tstar, ref = r.TFrac, phase1LP1(t, ins, jobs, 0.5)
			}
			if diff := math.Abs(tstar - ref); diff > 1e-7*math.Max(1, ref) {
				t.Fatalf("%s seed %d: crash-started t* = %.12g, phase-1 t* = %.12g", spec.Family, seed, tstar, ref)
			}
			plans++
		}
	}
	s := ws.Solver()
	if s.ColdSolves != 0 || s.WarmFallbacks != 0 || s.WarmSolves != plans {
		t.Fatalf("%d plans: cold=%d fallbacks=%d warm=%d, want 0/0/%d",
			plans, s.ColdSolves, s.WarmFallbacks, s.WarmSolves, plans)
	}
}
