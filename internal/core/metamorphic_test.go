package core_test

import (
	"context"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestShardedAndWarmKBounds asserts two metamorphic bounds on the paper's
// largest fleets, ALL-197 and SecondLife-97. Sharding into 4 solves each
// shard alone and pays for it in machines: at most 2 more than the
// unsharded solve. A warm re-solve of a drifted fleet keeps its incumbent's
// placement where it can: at most 1 machine more than a cold solve of the
// same drifted fleet.
func TestShardedAndWarmKBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	ctx := context.Background()
	opt := shortBudget(core.DefaultSolveOptions())
	warmOpt := core.DefaultResolveOptions()
	for _, c := range []struct {
		name string
		p    *core.Problem
	}{
		{"all-197", fleetProblem(fleet.All())},
		{"secondlife-97", fleetCase(fleet.SecondLife)},
	} {
		t.Run(c.name, func(t *testing.T) {
			unsharded, err := core.Solve(ctx, c.p, opt)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := core.SolveSharded(ctx, c.p, core.ShardOptions{Shards: 4, Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			if sharded.K > unsharded.K+2 {
				t.Errorf("4 shards take %d machines, the unsharded solve %d: more than 2 above", sharded.K, unsharded.K)
			}
			drifted := driftedCopy(c.p)
			cold, err := core.Solve(ctx, drifted, opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := core.Resolve(ctx, drifted, core.IncumbentFromSolution(c.p, unsharded), warmOpt)
			if err != nil {
				t.Fatal(err)
			}
			if warm.K > cold.K+1 {
				t.Errorf("the warm re-solve takes %d machines, the cold solve of the drifted fleet %d: more than 1 above", warm.K, cold.K)
			}
			t.Logf("K unsharded %d, 4 shards %d; drifted cold %d, warm %d", unsharded.K, sharded.K, cold.K, warm.K)
		})
	}
}
