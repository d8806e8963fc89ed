package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kairos/internal/core"
	"kairos/internal/cpu"
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

// TestResolveSameAtAnyProcs: Resolve's climbs scan ahead on a helper when
// the CPU budget has one, and its evaluator build splits over the budget,
// yet it returns the same solution at GOMAXPROCS 1, 2 and 8 — plan, K,
// objective bits, Fevals, migrations and every work counter but the
// timings. Four cases: the golden warm re-solve, whose first move and
// swap sweeps accept before their tails start, so a scan-ahead's work is
// dropped and started again (checked on the sweeps, WarmSweeps); the same
// under a migration cap, which climbs with no memo; and a drift-storm
// chain, ALL-197 drifting between two states in turn, each re-solve warm
// from the last one's plan, each accepting a move or none.
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
	if sh := core.WarmSweeps(t, drifted, inc, warm); sh.Move < 0 || sh.Move >= sh.MoveTail || sh.Swap < 0 || sh.Swap >= sh.SwapTail {
		t.Fatalf("warm: first move at unit %d (tail from %d), first swap at %d (tail from %d) of %d: a scan-ahead's work is never dropped",
			sh.Move, sh.MoveTail, sh.Swap, sh.SwapTail, sh.Units)
	}

	// The drift-storm chain: two states a 1 % drift of the fleet apart,
	// alternating, each re-solve warm from the plan before.
	states := [2]*core.Problem{driftedBy(all, 0.01, 1), driftedBy(all, 0.01, 2)}
	storm := func() []*core.Solution {
		var sols []*core.Solution
		at := inc
		for i := 0; i < 6; i++ {
			sol, err := core.Resolve(ctx, states[i%2], at, warm)
			if err != nil {
				t.Fatalf("storm re-solve %d: %v", i, err)
			}
			sols = append(sols, sol)
			at = core.IncumbentFromSolution(states[i%2], sol)
		}
		return sols
	}
	one := func(p *core.Problem, opt core.SolveOptions, inc *core.Incumbent) func() []*core.Solution {
		return func() []*core.Solution {
			sol, err := core.Resolve(ctx, p, inc, opt)
			if err != nil {
				t.Fatal(err)
			}
			return []*core.Solution{sol}
		}
	}
	// A scrambled incumbent, every third unit a machine over, accepts moves
	// all along its sweeps, those a scan-ahead's tail holds among them.
	scrambled := *inc
	scrambled.Units = append([]core.IncumbentUnit(nil), inc.Units...)
	for i := 0; i < len(scrambled.Units); i += 3 {
		u := &scrambled.Units[i]
		u.Machine = (u.Machine + 1) % inc.K
		u.MachineName = all.Machines[u.Machine].Name
	}
	for _, tc := range []struct {
		name  string
		solve func() []*core.Solution
	}{{"warm", one(drifted, warm, inc)}, {"capped", one(drifted, capped, inc)}, {"scrambled", one(drifted, warm, &scrambled)}, {"storm", storm}} {
		var want []*core.Solution
		for _, procs := range []int{1, 2, 8} {
			sols := atProcs(procs, tc.solve)
			for _, sol := range sols {
				if tc.name == "capped" && sol.Migrated > capped.MaxMigrations {
					t.Errorf("%s: %d migrated past the cap of %d", tc.name, sol.Migrated, capped.MaxMigrations)
				}
				sol.Elapsed, sol.Stats = 0, withoutTimes(sol.Stats)
			}
			if want == nil {
				want = sols
				continue
			}
			for i, sol := range sols {
				if w := want[i]; !reflect.DeepEqual(sol, w) || math.Float64bits(sol.Objective) != math.Float64bits(w.Objective) {
					t.Errorf("%s re-solve %d: GOMAXPROCS=%d gives K %d, obj %v, %d fevals, %d migrated, stats %+v\nGOMAXPROCS=1 gives K %d, obj %v, %d fevals, %d migrated, stats %+v",
						tc.name, i, procs, sol.K, sol.Objective, sol.Fevals, sol.Migrated, sol.Stats,
						w.K, w.Objective, w.Fevals, w.Migrated, w.Stats)
				}
			}
		}
	}
}

// cancelAfter is a context whose Err turns to Canceled at its n-th call:
// the sweeps, and a scan-ahead's helper, ask it once per unit, so a
// re-solve under it is cancelled in the middle of a climb.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestResolveScanAheadJoins: a re-solve's scan-ahead helper has given its
// slot back when Resolve returns, and no helper outlives it, whether the
// re-solve ends or its context is cancelled in the middle of a climb. A
// scan-ahead that is never joined fails the slot check at once.
func TestResolveScanAheadJoins(t *testing.T) {
	all := fleetProblem(fleet.All())
	local := core.DefaultSolveOptions()
	local.SkipDirect = true
	cold, err := core.Solve(context.Background(), all, local)
	if err != nil {
		t.Fatal(err)
	}
	inc := core.IncumbentFromSolution(all, cold)
	drifted := driftedCopy(all)
	warm := core.DefaultResolveOptions()
	warm.SkipDirect = true
	for _, procs := range []int{2, 8} {
		atProcs(procs, func() struct{} {
			base := runtime.NumGoroutine()
			for i := 0; i < 3; i++ {
				if _, err := core.Resolve(context.Background(), drifted, inc, warm); err != nil {
					t.Fatal(err)
				}
				if n := cpu.InUse(); n != 0 {
					t.Errorf("GOMAXPROCS=%d: %d slots in use after a re-solve", procs, n)
				}
			}
			for _, n := range []int64{50, 300, 700} {
				ctx := &cancelAfter{Context: context.Background(), n: n}
				if _, err := core.Resolve(ctx, drifted, inc, warm); !errors.Is(err, context.Canceled) {
					t.Errorf("GOMAXPROCS=%d: a re-solve cancelled at unit check %d returned %v", procs, n, err)
				}
				if n := cpu.InUse(); n != 0 {
					t.Errorf("GOMAXPROCS=%d: %d slots in use after a cancelled re-solve", procs, n)
				}
			}
			// A helper may still be between giving its slot back and its exit.
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("GOMAXPROCS=%d: %d goroutines after the re-solves, %d before", procs, n, base)
			}
			return struct{}{}
		})
	}
}
