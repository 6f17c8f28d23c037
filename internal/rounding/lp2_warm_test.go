package rounding

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/workload"
)

// forestBlocks generates a forest instance and its heavy-path
// decomposition — the exact block sequence SUU-T runs (LP2) over.
func forestBlocks(t *testing.T, seed int64) (*model.Instance, [][]dag.Chain) {
	t.Helper()
	ins, err := workload.Generate(workload.Spec{Family: "forest", M: 8, N: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ins.Prec.DecomposeForest()
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]dag.Chain
	for _, b := range raw {
		blocks = append(blocks, []dag.Chain(b))
	}
	return ins, blocks
}

// phase1LP2 solves the (LP2) relaxation over chains from the all-slack
// basis with the two-phase Solve, bypassing every starting basis the
// workspace would construct.
func phase1LP2(t *testing.T, ins *model.Instance, chains []dag.Chain) float64 {
	t.Helper()
	ref := NewWorkspace()
	p, _, err := ref.buildLP2(ins, chains)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ref.solver.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("phase-1 reference: %v %v", sol, err)
	}
	return sol.Obj
}

// TestLP2CrossBlockWarmMatchesCold drives one workspace through a forest
// decomposition's block sequence — SUU-T's exact access pattern — with the
// LP2 cross-block warm chain engaged, and checks every block's t* against
// a phase-1 solve of the identical block. The warm path must actually be
// attempted on chain links (blocks after the first, where lp2Compatible
// holds), or the test proves nothing; crash-started first blocks do not
// count.
func TestLP2CrossBlockWarmMatchesCold(t *testing.T) {
	for seed := int64(3); seed < 6; seed++ {
		ins, blocks := forestBlocks(t, seed)
		if len(blocks) < 2 {
			continue
		}
		ws := NewWorkspace()
		ws.BeginLP2()
		attempts := 0
		for bi, block := range blocks {
			if len(block) == 0 {
				continue
			}
			link := ws.lp2Compatible(ins)
			before := ws.solver.WarmSolves + ws.solver.WarmFallbacks
			_, _, jobs, tWarm, err := ws.solveLP2(ins, block)
			if err != nil {
				t.Fatalf("seed %d block %d: %v", seed, bi, err)
			}
			if link && ws.solver.WarmSolves+ws.solver.WarmFallbacks > before {
				attempts++
			}
			k := len(jobs)
			h, _ := hashChains(block)
			ws.advanceLP2(ins, ws.lp2LastBasis, k, h)
			tCold := phase1LP2(t, ins, block)
			if diff := math.Abs(tWarm - tCold); diff > 1e-6*(1+math.Abs(tCold)) {
				t.Fatalf("seed %d block %d: chained t* = %.9g, cold t* = %.9g (diff %g)",
					seed, bi, tWarm, tCold, diff)
			}
		}
		if attempts == 0 {
			t.Fatalf("seed %d: LP2 warm path never attempted across %d blocks", seed, len(blocks))
		}
	}
}

// TestLP2ChainedCacheDeterministic: replaying a block sequence through
// RoundLP2Ws — cold, populating the cache, then from the cache — must give
// byte-identical assignments, the property SUU-T's Monte Carlo determinism
// across worker counts rests on.
func TestLP2ChainedCacheDeterministic(t *testing.T) {
	ins, blocks := forestBlocks(t, 4)
	if len(blocks) < 2 {
		t.Skip("decomposition produced a single block")
	}
	run := func(c *LP2Cache) []*LP2Result {
		ws := NewWorkspace()
		ws.BeginLP2()
		var out []*LP2Result
		for _, block := range blocks {
			r, err := c.RoundLP2Ws(ws, ins, block)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
		return out
	}
	base := run(nil)
	cache := NewLP2Cache()
	first := run(cache)  // populates the cache
	second := run(cache) // replays from the cache
	for bi := range blocks {
		for _, other := range [][]*LP2Result{first, second} {
			a, b := base[bi].Assignment, other[bi].Assignment
			for i := 0; i < a.M; i++ {
				for j := 0; j < a.N; j++ {
					if a.X[i][j] != b.X[i][j] {
						t.Fatalf("block %d: assignment diverges at machine %d job %d: %d vs %d",
							bi, i, j, a.X[i][j], b.X[i][j])
					}
				}
			}
		}
	}
}
