package core_test

import (
	"context"
	"testing"

	"kairos/internal/core"
	"kairos/internal/direct"
	"kairos/internal/fleet"
	"kairos/internal/greedy"
	"kairos/internal/series"
)

// The benchmarks below time the pieces of a cold solve that exact pricing
// is made of, on the SecondLife-97 fleet at its solved machine count, so
// the per-phase rows of `make bench-hot` show which of them a change
// moved.

const benchK = 11 // SecondLife-97's machine count (TestGoldenSolves)

var benchSink float64

func secondLife(b *testing.B, withDisk bool) (*core.Evaluator, []int) {
	b.Helper()
	p := fleetCase(fleet.SecondLife)
	if withDisk {
		p.Disk = goldenDiskProfile()
	}
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]int, ev.NumUnits())
	for u := range assign {
		assign[u] = u % benchK
	}
	return ev, assign
}

// BenchmarkEvalDirectReplay replays on a fresh evaluator the assignments a
// budget-4000 DIRECT run hands to Eval on SecondLife-97 at K = 11 — the
// traffic itself, recorded outside the timer: it starts with every unit on
// one machine, a summed machine holds 32 members on average and up to 96, and
// nearly half the machines it meets it has met before. eval-priced is the
// machines summed from scratch.
func BenchmarkEvalDirectReplay(b *testing.B) {
	ev, assign := secondLife(b, false)
	nU := len(assign)
	lower, upper := make([]float64, nU), make([]float64, nU)
	for i := range upper {
		upper[i] = benchK
	}
	var trace []int // the recorded assignments, stride nU
	if _, err := direct.Minimize(func(x []float64) float64 {
		for i, v := range x {
			assign[i] = min(int(v), benchK-1)
		}
		trace = append(trace, assign...)
		obj, _ := ev.Eval(assign, benchK)
		return obj
	}, lower, upper, direct.Options{MaxFevals: 4000, Epsilon: 1e-4}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fresh *core.Evaluator
	for i := 0; i < b.N; i++ {
		fresh = ev.Clone() // no table, no scratch
		for s := 0; s < len(trace); s += nU {
			obj, _ := fresh.Eval(trace[s:s+nU], benchK)
			benchSink += obj
		}
	}
	b.ReportMetric(float64(fresh.Stats().EvalPriced), "eval-priced")
}

func benchPriceSwap(b *testing.B, withDisk bool) {
	ev, assign := secondLife(b, withDisk)
	ls := core.NewLoadState(ev, assign, benchK)
	n := ls.NumUnits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Neighbours in the round-robin assignment never share a machine.
		u := i % (n - 1)
		nu, nv := ls.PriceSwap(u, u+1)
		benchSink += nu + nv
	}
}

// BenchmarkPriceSwapNoDisk times one exact 2-exchange pricing with CPU and
// RAM streams only; BenchmarkPriceSwapDisk adds the disk model's two
// streams and its polynomial and envelope per time step.
func BenchmarkPriceSwapNoDisk(b *testing.B) { benchPriceSwap(b, false) }
func BenchmarkPriceSwapDisk(b *testing.B)   { benchPriceSwap(b, true) }

// The benchmarks below run whole solves on the paper's fleets and report,
// beside the time, what the solver did as counts that repeat exactly on any
// machine: BENCH_counts.json holds them and `make bench-counts` fails when
// one rises, so work that creeps back into the solver fails a gate on a
// number, not on a stopwatch. They leave allocation counts to -benchmem
// (make bench-hot): those move with the Go release, and the committed
// baseline must not.

// reportWork reports a solve's work counters and its machine count:
// screened is the candidates that reached the staged screen, those the
// capacity stage did not decide.
func reportWork(b *testing.B, sol *core.Solution) {
	b.ReportMetric(float64(sol.Fevals), "fevals")
	b.ReportMetric(float64(len(sol.Stats.Probes)), "probes")
	b.ReportMetric(float64(sol.Stats.ClimbsReused), "climbs-reused")
	b.ReportMetric(sol.Stats.SkippedFrac(), "skipped-frac")
	b.ReportMetric(float64(sol.Stats.Priced), "priced")
	b.ReportMetric(float64(sol.Stats.Considered-sol.Stats.CapPruned), "screened")
	b.ReportMetric(float64(sol.K), "machines")
}

func benchColdSolve(b *testing.B, p *core.Problem) *core.Solution {
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	var sol *core.Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = core.Solve(context.Background(), p, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWork(b, sol)
	return sol
}

// BenchmarkColdSolveALL197 is the cold local-search solve of the 197-server
// fleet — the slowest registration of the end-to-end benchmark.
func BenchmarkColdSolveALL197(b *testing.B) {
	benchColdSolve(b, fleetProblem(fleet.All()))
}

// weekOf tiles a one-day problem to seven days: day d's demand series are
// the day's scaled by weekShape[d] — a fixed working-week profile, busiest
// on the first day, so the machine count the one-day fleet needs still
// holds.
func weekOf(p *core.Problem) *core.Problem {
	weekShape := [7]float64{1, 0.97, 0.95, 0.98, 0.93, 0.78, 0.74}
	tile := func(s *series.Series) *series.Series {
		if s == nil {
			return nil
		}
		vals := make([]float64, 0, len(weekShape)*s.Len())
		for _, f := range weekShape {
			for _, v := range s.Values {
				vals = append(vals, f*v)
			}
		}
		return series.New(s.Start, s.Step, vals)
	}
	week := *p
	week.Workloads = append([]core.Workload(nil), p.Workloads...)
	for i := range week.Workloads {
		w := &week.Workloads[i]
		w.CPU, w.RAMBytes = tile(w.CPU), tile(w.RAMBytes)
		w.WSBytes, w.UpdateRate = tile(w.WSBytes), tile(w.UpdateRate)
	}
	return &week
}

// BenchmarkColdSolveALL197Week is the cold ALL-197 solve over one week at
// five minutes, T = 2016: the horizon at which exact O(T) pricing costs
// seven times a day's, and the sweep screen, which reads a fixed number of
// steps whatever T is, the same.
func BenchmarkColdSolveALL197Week(b *testing.B) {
	benchColdSolve(b, weekOf(fleetProblem(fleet.All())))
}

// BenchmarkColdSolveSecondLife97Disk is the same solve of SecondLife-97
// under the disk model.
func BenchmarkColdSolveSecondLife97Disk(b *testing.B) {
	p := fleetCase(fleet.SecondLife)
	p.Disk = goldenDiskProfile()
	benchColdSolve(b, p)
}

// benchDirectSolve is the cold solve with DIRECT, as four of the end-to-end
// benchmark's seven registrations run it, sequentially; eval-priced is the
// machines Eval summed from scratch.
func benchDirectSolve(b *testing.B, d fleet.Dataset) {
	p := fleetCase(d)
	var sol *core.Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sol, err = core.Solve(context.Background(), p, core.DefaultSolveOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWork(b, sol)
	b.ReportMetric(float64(sol.Stats.EvalPriced), "eval-priced")
}

func BenchmarkColdSolveSecondLife97Direct(b *testing.B) { benchDirectSolve(b, fleet.SecondLife) }
func BenchmarkColdSolveWikipedia40Direct(b *testing.B)  { benchDirectSolve(b, fleet.Wikipedia) }

// BenchmarkResolveWarmALL197 is one drift-triggered re-solve: the cold
// ALL-197 plan as incumbent, every workload drifted by up to ±5 %.
func BenchmarkResolveWarmALL197(b *testing.B) {
	all := fleetProblem(fleet.All())
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	cold, err := core.Solve(context.Background(), all, opt)
	if err != nil {
		b.Fatal(err)
	}
	inc := core.IncumbentFromSolution(all, cold)
	drifted := driftedCopy(all)
	warmOpt := core.DefaultResolveOptions()
	warmOpt.SkipDirect = true
	var sol *core.Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol, err = core.Resolve(context.Background(), drifted, inc, warmOpt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportWork(b, sol)
	b.ReportMetric(float64(sol.Migrated), "migrated")
}

// BenchmarkGreedyPackALL197 is the greedy packing of one ALL-197 solve: a
// packing per resource order through one fits closure, as the solver runs
// it; machines is the bin count, the upper bound on K.
func BenchmarkGreedyPackALL197(b *testing.B) {
	ev, err := core.NewEvaluator(fleetProblem(fleet.All()))
	if err != nil {
		b.Fatal(err)
	}
	loads := ev.GreedyLoads()
	var bins [][]int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if bins, ok, err = greedy.MultiResource(loads, ev.GreedyFits(), 0); err != nil || !ok {
			b.Fatal("greedy packing failed:", err)
		}
	}
	b.ReportMetric(float64(len(bins)), "machines")
}
