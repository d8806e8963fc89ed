package core_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestResolveSameAtAnyProcs: Resolve climbs its candidates side by side, on
// as many cores as GOMAXPROCS gives, and returns the same solution on one
// as on four — plan, K, objective bits, Fevals, migrations and the work
// counters, all but EvalPriced and EvalReused (each clone prices on its own
// table) and the timings. On the golden warm re-solve, three candidates,
// and under a migration cap, the warm one alone.
func TestResolveSameAtAnyProcs(t *testing.T) {
	ctx := context.Background()
	all := fleetProblem(fleet.All())
	local := core.DefaultSolveOptions()
	local.SkipDirect = true
	cold, err := core.Solve(ctx, all, local)
	if err != nil {
		t.Fatal(err)
	}
	inc := core.IncumbentFromSolution(all, cold)
	drifted := driftedCopy(all)
	warm := core.DefaultResolveOptions()
	warm.SkipDirect = true
	capped := warm
	capped.MaxMigrations = 4

	for _, tc := range []struct {
		name string
		opt  core.SolveOptions
	}{{"warm", warm}, {"capped", capped}} {
		var want *core.Solution
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			sol, err := core.Resolve(ctx, drifted, inc, tc.opt)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			if tc.opt.MaxMigrations > 0 && sol.Migrated > tc.opt.MaxMigrations {
				t.Errorf("%s: %d migrated past the cap of %d", tc.name, sol.Migrated, tc.opt.MaxMigrations)
			}
			sol.Elapsed, sol.Stats.GreedyPack = 0, 0
			sol.Stats.EvalPriced, sol.Stats.EvalReused = 0, 0
			if want == nil {
				want = sol
				continue
			}
			if !reflect.DeepEqual(sol, want) || math.Float64bits(sol.Objective) != math.Float64bits(want.Objective) {
				t.Errorf("%s: GOMAXPROCS=%d gives K %d, obj %v, %d fevals, %d migrated, stats %+v\nGOMAXPROCS=1 gives K %d, obj %v, %d fevals, %d migrated, stats %+v",
					tc.name, procs, sol.K, sol.Objective, sol.Fevals, sol.Migrated, sol.Stats,
					want.K, want.Objective, want.Fevals, want.Migrated, want.Stats)
			}
		}
	}
}
