package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/floats"
	"kairos/internal/series"
)

// shortBudget shrinks a solve's DIRECT budget under -short so the
// race-enabled CI job stays fast; full runs keep the default budgets.
func shortBudget(opt core.SolveOptions) core.SolveOptions {
	if testing.Short() {
		opt.DirectFevals = 400
		opt.PolishFevals = 800
	}
	return opt
}

// fleetCase builds the consolidation problem for a generated dataset.
func fleetCase(d fleet.Dataset) *core.Problem {
	return fleetProblem(fleet.Generate(d))
}

// fleetProblem builds the consolidation problem for a fleet: its workloads
// at the paper's 0.7 RAM scale and one target machine per server.
func fleetProblem(f fleet.Fleet) *core.Problem {
	wls := f.Workloads(0.7)
	machines := make([]core.Machine, len(f.Servers))
	for i := range machines {
		machines[i] = fleet.TargetMachine(fmt.Sprintf("t%d", i), 50e6, 0.05)
	}
	return &core.Problem{Workloads: wls, Machines: machines}
}

func samePlan(t *testing.T, a, b *core.Solution, label string) {
	t.Helper()
	if a.K != b.K || a.Feasible != b.Feasible || !floats.Same(a.Objective, b.Objective) || a.Fevals != b.Fevals {
		t.Errorf("%s: (K=%d feas=%v obj=%v fevals=%d) vs (K=%d feas=%v obj=%v fevals=%d)",
			label, a.K, a.Feasible, a.Objective, a.Fevals, b.K, b.Feasible, b.Objective, b.Fevals)
	}
	for u := range a.Assign {
		if a.Assign[u] != b.Assign[u] {
			t.Errorf("%s: Assign[%d] = %d vs %d", label, u, a.Assign[u], b.Assign[u])
			break
		}
	}
}

// withoutTimes returns s with every wall time zeroed: the greedy packing's,
// the sweeps', and each probe's and candidate climb's.
func withoutTimes(s core.SolveStats) core.SolveStats {
	s.GreedyPack, s.MoveSweepTime, s.SwapSweepTime = 0, 0, 0
	s.Probes = append([]core.ProbeStats(nil), s.Probes...)
	for i := range s.Probes {
		s.Probes[i].Elapsed = 0
	}
	s.Candidates = append([]core.CandidateStats(nil), s.Candidates...)
	for i := range s.Candidates {
		s.Candidates[i].Elapsed = 0
	}
	return s
}

// sameWork holds two solves to the same work counters: the probes in
// consumption order (K, verdict, evaluations, whether the cold climbs were
// reused) and the climb, sweep and candidate counts. Times are excluded,
// and so are Eval's table counters, which depend on how many clones priced.
func sameWork(t *testing.T, a, b *core.Solution, label string) {
	t.Helper()
	strip := func(s core.SolveStats) core.SolveStats {
		s = withoutTimes(s)
		s.EvalPriced, s.EvalReused = 0, 0
		return s
	}
	if sa, sb := strip(a.Stats), strip(b.Stats); !reflect.DeepEqual(sa, sb) {
		t.Errorf("%s: work differs:\n %+v\n %+v", label, sa, sb)
	}
}

// A solve with helpers to spare — speculated probes, climbs and packings
// on seven — gives the bit-identical plan, run to run.
func TestParallelSolveDeterministic(t *testing.T) {
	p := fleetCase(fleet.Wikia)
	opt := shortBudget(core.DefaultSolveOptions())
	solve := func() *core.Solution {
		sol, err := core.Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	r1, r2 := atProcs(8, solve), atProcs(8, solve)
	samePlan(t, r1, r2, "repeat parallel solve")
}

// The sharded solver must stay feasible and land close to the single global
// solve on a real-sized fleet; the cross-shard merge pass is what claws
// back the machines independent shard solves waste.
func TestSolveShardedQuality(t *testing.T) {
	p := fleetCase(fleet.SecondLife)
	whole, err := core.Solve(context.Background(), p, shortBudget(core.DefaultSolveOptions()))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.ShardOptions{Shards: 4, Options: shortBudget(core.DefaultSolveOptions())}
	sharded, err := core.SolveSharded(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sharded.Feasible {
		t.Fatal("sharded plan infeasible")
	}
	if len(sharded.Assign) != len(whole.Assign) {
		t.Fatalf("sharded plan has %d units, want %d", len(sharded.Assign), len(whole.Assign))
	}
	// Allow modest quality loss from sharding, never more than 50% + 1.
	if limit := whole.K + whole.K/2 + 1; sharded.K > limit {
		t.Errorf("sharded K = %d, unsharded %d (limit %d)", sharded.K, whole.K, limit)
	}
	for u, j := range sharded.Assign {
		if j < 0 || j >= sharded.K {
			t.Fatalf("unit %d assigned to machine %d outside [0,%d)", u, j, sharded.K)
		}
	}
}

func TestSolveShardedDeterministic(t *testing.T) {
	p := fleetCase(fleet.Wikipedia)
	opt := core.ShardOptions{Shards: 3, Options: shortBudget(core.DefaultSolveOptions())}
	r1, err := core.SolveSharded(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.SolveSharded(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, r1, r2, "repeat sharded solve")
}

// A single shard (or tiny input) degenerates to the plain solver.
func TestSolveShardedSingleShard(t *testing.T) {
	p := fleetCase(fleet.Internal)
	whole, err := core.Solve(context.Background(), p, shortBudget(core.DefaultSolveOptions()))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 1, Options: shortBudget(core.SolveOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	samePlan(t, whole, sharded, "single shard")
}

// Heterogeneous machine lists cannot be relabelled, so shards solve
// sequentially against the remaining machines — the result must still be
// feasible and cover every unit.
func TestSolveShardedHeterogeneousMachines(t *testing.T) {
	p := fleetCase(fleet.Wikia)
	for i := range p.Machines {
		if i%2 == 1 {
			p.Machines[i].CPUCapacity = 2
			p.Machines[i].RAMBytes *= 2
		}
	}
	sol, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 3, Options: shortBudget(core.DefaultSolveOptions())})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Error("heterogeneous sharded plan infeasible")
	}
	if len(sol.Assign) != len(p.Workloads) {
		t.Errorf("plan covers %d units, want %d", len(sol.Assign), len(p.Workloads))
	}
}

func TestSolveShardedRejectsGlobalConstraints(t *testing.T) {
	p := fleetCase(fleet.Internal)
	p.AntiAffinity = [][2]int{{0, 1}}
	if _, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 2}); err == nil {
		t.Error("explicit anti-affinity accepted")
	}
	p = fleetCase(fleet.Internal)
	p.Workloads[0].PinTo = 0
	if _, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 2}); err == nil {
		t.Error("pinned workload accepted")
	}
}

// When per-shard solves collectively want more machines than the fleet has
// (each shard fragments its last machine), the merge's reduction pass must
// reclaim the slack instead of erroring: 9 workloads at 0.35 CPU fit two
// per machine (5 machines), but three independent 3-workload shards want
// two machines each (6 total).
func TestSolveShardedReclaimsOvershoot(t *testing.T) {
	start := time.Unix(0, 0)
	n := 12
	var wls []core.Workload
	for i := 0; i < 9; i++ {
		wls = append(wls, core.Workload{
			Name:     fmt.Sprintf("w%d", i),
			CPU:      series.Constant(start, 5*time.Minute, n, 0.35),
			RAMBytes: series.Constant(start, 5*time.Minute, n, 2e9),
			PinTo:    -1,
		})
	}
	machines := make([]core.Machine, 5)
	for i := range machines {
		machines[i] = core.Machine{Name: fmt.Sprintf("m%d", i), CPUCapacity: 1, RAMBytes: 32e9}
	}
	p := &core.Problem{Workloads: wls, Machines: machines}
	sol, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 3, Options: core.DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 5 {
		t.Errorf("overshoot merge: K=%d feasible=%v, want 5 feasible", sol.K, sol.Feasible)
	}
}

// Replicas of one workload must never share a machine, even across the
// sharded path's merge and reduction passes.
func TestSolveShardedKeepsReplicaAntiAffinity(t *testing.T) {
	start := time.Unix(0, 0)
	n := 12
	var wls []core.Workload
	for i := 0; i < 12; i++ {
		w := core.Workload{
			Name:     fmt.Sprintf("w%d", i),
			CPU:      series.Constant(start, 5*time.Minute, n, 0.05),
			RAMBytes: series.Constant(start, 5*time.Minute, n, 2e9),
			PinTo:    -1,
		}
		if i < 4 {
			w.Replicas = 2
		}
		wls = append(wls, w)
	}
	machines := make([]core.Machine, 8)
	for i := range machines {
		machines[i] = core.Machine{Name: fmt.Sprintf("m%d", i), CPUCapacity: 1, RAMBytes: 32e9}
	}
	p := &core.Problem{Workloads: wls, Machines: machines}
	sol, err := core.SolveSharded(context.Background(), p, core.ShardOptions{Shards: 3, Options: core.DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("replicated sharded plan infeasible")
	}
	host := map[[2]int]int{}
	for u, j := range sol.Assign {
		ref := sol.Units[u]
		if ref.Replica == 0 {
			continue
		}
		host[[2]int{ref.Workload, ref.Replica}] = j
	}
	for u, j := range sol.Assign {
		ref := sol.Units[u]
		if ref.Replica != 0 {
			continue
		}
		for r := 1; ; r++ {
			other, ok := host[[2]int{ref.Workload, r}]
			if !ok {
				break
			}
			if other == j {
				t.Errorf("workload %d replicas share machine %d", ref.Workload, j)
			}
		}
	}
}
