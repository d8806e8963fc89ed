package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// atProcs returns f's result with GOMAXPROCS set to n, and so the CPU
// budget to n − 1 helper slots.
func atProcs[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// TestSolveSameAtAnyProcs: a cold solve speculates K probes and puts its
// cold-seed climbs and greedy packings on as many helpers as the CPU budget
// has, and SolveSharded its shards, yet each returns the same solution at
// GOMAXPROCS 1, 2 and 8 — assignment, K, objective bits, Fevals and the
// work counters, the probe log among them, all but EvalPriced and
// EvalReused (a helper prices on its clone's table) and the timings. Local
// search, DIRECT and the disk model; and a final run at K' that reuses the
// probe which found it, which a speculated probe must hand back.
func TestSolveSameAtAnyProcs(t *testing.T) {
	ctx := context.Background()
	local := shortBudget(core.DefaultSolveOptions())
	local.SkipDirect = true
	withDirect := shortBudget(core.DefaultSolveOptions())
	disk := fleetCase(fleet.SecondLife)
	disk.Disk = goldenDiskProfile()
	solve := func(p *core.Problem, opt core.SolveOptions) func() (*core.Solution, error) {
		return func() (*core.Solution, error) { return core.Solve(ctx, p, opt) }
	}
	cases := []struct {
		name  string
		solve func() (*core.Solution, error)
	}{
		{"wikipedia-local", solve(fleetCase(fleet.Wikipedia), local)},
		{"secondlife-direct", solve(fleetCase(fleet.SecondLife), withDirect)},
		{"secondlife-disk-local", solve(disk, local)},
		{"secondlife-shards4", func() (*core.Solution, error) {
			return core.SolveSharded(ctx, fleetCase(fleet.SecondLife), core.ShardOptions{Shards: 4, Options: local})
		}},
	}
	if !testing.Short() {
		cases = append(cases, struct {
			name  string
			solve func() (*core.Solution, error)
		}{"wikipedia-direct", solve(fleetCase(fleet.Wikipedia), withDirect)})
	}
	type result struct {
		sol *core.Solution
		err error
	}
	for _, tc := range cases {
		var want *core.Solution
		for _, procs := range []int{1, 2, 8} {
			r := atProcs(procs, func() result {
				sol, err := tc.solve()
				return result{sol, err}
			})
			if r.err != nil {
				t.Fatalf("%s, GOMAXPROCS=%d: %v", tc.name, procs, r.err)
			}
			if want == nil {
				want = r.sol
				if probes := want.Stats.Probes; len(probes) > 0 && (len(probes) < 2 || !probes[len(probes)-1].Reused) {
					t.Fatalf("%s: probes %+v — the final run did not reuse a probe, so the hand-back is not exercised", tc.name, probes)
				}
				continue
			}
			label := fmt.Sprintf("%s, GOMAXPROCS=%d", tc.name, procs)
			samePlan(t, want, r.sol, label)
			if math.Float64bits(want.Objective) != math.Float64bits(r.sol.Objective) {
				t.Errorf("%s: objective bits %#x vs %#x", label, math.Float64bits(r.sol.Objective), math.Float64bits(want.Objective))
			}
			sameWork(t, want, r.sol, label)
		}
	}
}

// TestResolveSameAtAnyProcs: Resolve returns the same solution at
// GOMAXPROCS 1 as at 4 — plan, K, objective bits, Fevals, migrations and
// the work counters, all but EvalPriced and EvalReused and the timings — on
// the golden warm re-solve and under a migration cap.
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
			sol.Elapsed, sol.Stats = 0, withoutTimes(sol.Stats)
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
