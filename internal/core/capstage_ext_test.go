package core_test

import (
	"context"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestCapStageNeverStrongerThanFirstStage walks the climbs of three real
// solves — cold ALL-197, cold SecondLife-97 under the disk model, and the
// warm re-solve of the drifted ALL-197 with migration pricing — and holds
// every candidate the screen's capacity stage prunes to the first stage it
// sits in front of: that stage prunes it too, and exact pricing would not
// have accepted it (core.WalkCapStage). The stage must decide something on
// each, or this checks nothing.
func TestCapStageNeverStrongerThanFirstStage(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	ctx := context.Background()
	local := core.DefaultSolveOptions()
	local.SkipDirect = true
	all := fleetProblem(fleet.All())
	cold, err := core.Solve(ctx, all, local)
	if err != nil {
		t.Fatal(err)
	}
	disk := fleetCase(fleet.SecondLife)
	disk.Disk = goldenDiskProfile()
	warmOpt := core.DefaultResolveOptions()
	warmOpt.SkipDirect = true
	for _, c := range []struct {
		name string
		p    *core.Problem
		inc  *core.Incumbent
		K    int
		opt  core.SolveOptions
	}{
		{"all-197-cold", all, nil, cold.K, local},
		{"secondlife-97-disk", disk, nil, 11, local},
		{"all-197-warm", driftedCopy(all), core.IncumbentFromSolution(all, cold), 0, warmOpt},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := core.WalkCapStage(t, c.p, c.inc, c.K, c.opt)
			if w.CapPruned == 0 || w.CapPruned == w.Considered {
				t.Fatalf("the capacity stage pruned %d of %d candidates: the check exercised nothing", w.CapPruned, w.Considered)
			}
			t.Logf("%d candidates, %d pruned by the capacity stage", w.Considered, w.CapPruned)
		})
	}
}
