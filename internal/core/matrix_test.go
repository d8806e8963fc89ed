package core_test

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/series"
)

// The re-solve matrix judges Resolve on the drift a fleet sees between two
// consolidations, not on one scenario: each fleet's cold local-search plan
// is the incumbent, and Resolve re-solves it after each of six
// perturbations at three seeds — every workload's amplitude drifted by up
// to ±2, 5, 10 or 20 %, or 10 % or 30 % of the workloads phase-shifted by
// two hours (24 five-minute steps). Its sums repeat exactly on any machine.
// The counts among them are BenchmarkResolveMatrix's rows in
// BENCH_counts.json, which both the count gate and TestResolveMatrix read;
// the objective sum, not a count, is held here.

// matrixRow sums one dataset's 18 re-solves: machines, plans left
// infeasible, units migrated, objective evaluations and the canonical
// objective.
type matrixRow struct {
	k, infeasible, migrated, fevals int
	objective                       float64
}

// matrixDatasets are the matrix's fleets: the paper's four datasets and
// their union on one class of target machine; SecondLife under the disk
// model; Wikipedia and SecondLife with every other machine at half the CPU
// and RAM (two classes, so no reduction pass reclaims a machine and Resolve
// climbs the cold seeds); and SecondLife with three workloads pinned to the
// first three machines.
var matrixDatasets = []struct {
	name    string
	problem func() *core.Problem
}{
	{"Internal", func() *core.Problem { return fleetCase(fleet.Internal) }},
	{"Wikia", func() *core.Problem { return fleetCase(fleet.Wikia) }},
	{"Wikipedia", func() *core.Problem { return fleetCase(fleet.Wikipedia) }},
	{"SecondLife", func() *core.Problem { return fleetCase(fleet.SecondLife) }},
	{"ALL", func() *core.Problem { return fleetProblem(fleet.All()) }},
	{"SecondLife-disk", func() *core.Problem {
		p := fleetCase(fleet.SecondLife)
		p.Disk = goldenDiskProfile()
		return p
	}},
	{"Wikipedia-mixed", func() *core.Problem {
		p := fleetCase(fleet.Wikipedia)
		for j := 1; j < len(p.Machines); j += 2 {
			p.Machines[j].CPUCapacity /= 2
			p.Machines[j].RAMBytes /= 2
		}
		return p
	}},
	{"SecondLife-halved", func() *core.Problem {
		p := fleetCase(fleet.SecondLife)
		for j := 1; j < len(p.Machines); j += 2 {
			p.Machines[j].CPUCapacity /= 2
			p.Machines[j].RAMBytes /= 2
		}
		return p
	}},
	{"SecondLife-pinned", secondLifePinned},
}

// secondLifePinned is SecondLife with workloads 0, 3 and 7 pinned to
// machines 0, 1 and 2.
func secondLifePinned() *core.Problem {
	p := fleetCase(fleet.SecondLife)
	for j, w := range []int{0, 3, 7} {
		p.Workloads[w].PinTo = j
	}
	return p
}

// matrixIncumbent is p's cold local-search plan, the matrix's incumbent.
func matrixIncumbent(tb testing.TB, p *core.Problem) *core.Incumbent {
	tb.Helper()
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	cold, err := core.Solve(context.Background(), p, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return core.IncumbentFromSolution(p, cold)
}

// resolveMatrix re-solves each perturbation of p warm from inc.
func resolveMatrix(tb testing.TB, p *core.Problem, inc *core.Incumbent) matrixRow {
	tb.Helper()
	var row matrixRow
	for _, perturb := range []func(p *core.Problem, seed int64) *core.Problem{
		driftBy(0.02), driftBy(0.05), driftBy(0.10), driftBy(0.20),
		phaseShift(0.10), phaseShift(0.30),
	} {
		for seed := int64(1); seed <= 3; seed++ {
			sol, err := core.Resolve(context.Background(), perturb(p, seed), inc, core.DefaultResolveOptions())
			if err != nil {
				tb.Fatal(err)
			}
			row.k += sol.K
			row.migrated += sol.Migrated
			row.fevals += sol.Fevals
			row.objective += sol.Objective
			if !sol.Feasible {
				row.infeasible++
			}
		}
	}
	return row
}

// driftBy returns the perturbation that scales every series of each
// workload by its own seeded factor in 1 ± frac.
func driftBy(frac float64) func(*core.Problem, int64) *core.Problem {
	return func(p *core.Problem, seed int64) *core.Problem {
		rng := rand.New(rand.NewSource(seed))
		q := withWorkloads(p)
		for i := range q.Workloads {
			w := &q.Workloads[i]
			f := 1 + (rng.Float64()*2-1)*frac
			w.CPU = w.CPU.Scale(f).Clamp(0, 1)
			w.RAMBytes = w.RAMBytes.Scale(f)
			w.WSBytes = w.WSBytes.Scale(f)
			w.UpdateRate = w.UpdateRate.Scale(f)
		}
		return q
	}
}

// phaseShift returns the perturbation that moves every series of a seeded
// choice of frac of the workloads two hours later in the day, wrapping
// around.
func phaseShift(frac float64) func(*core.Problem, int64) *core.Problem {
	const steps = 24
	rotate := func(s *series.Series) *series.Series {
		n := s.Len()
		return series.New(s.Start, s.Step, append(s.Values[n-steps:n:n], s.Values[:n-steps]...))
	}
	return func(p *core.Problem, seed int64) *core.Problem {
		q := withWorkloads(p)
		n := int(math.Round(frac * float64(len(q.Workloads))))
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(q.Workloads))[:n] {
			w := &q.Workloads[i]
			w.CPU, w.RAMBytes = rotate(w.CPU), rotate(w.RAMBytes)
			w.WSBytes, w.UpdateRate = rotate(w.WSBytes), rotate(w.UpdateRate)
		}
		return q
	}
}

// withWorkloads returns a copy of p whose workload slice may be written.
func withWorkloads(p *core.Problem) *core.Problem {
	q := *p
	q.Workloads = append([]core.Workload(nil), p.Workloads...)
	return &q
}

// matrixObjective is each fleet's objective sum as Resolve answered it
// while it climbed the greedy and round-robin cold seeds beside the warm
// one on every fleet and kept the best. Climbing the warm seed alone where
// machines are interchangeable changed 7 of the 144 plans at the same K, by
// −0.41 % to +0.65 % each, and no fleet's objective sum by more than
// +0.044 % (Internal). SecondLife-pinned's sum is the one taken once the
// reduction pass kept pins and the fleet climbed the warm seed alone: two
// plans changed K (±5 % drift seed 3 11 → 12, 30 % phase shift seed 2
// 11 → 10) and the sum fell 0.017 %. The mixed-class fleets still climb
// both cold seeds: without them Wikipedia-mixed's sum rose 0.98 % and
// SecondLife-halved's Σ K 270 → 290; with the greedy seed alone
// SecondLife-halved's Σ K was 276 and Wikipedia-mixed's sum +0.53 %, with
// the round-robin seed alone Wikipedia-mixed's sum +0.46 %.
var matrixObjective = map[string]float64{
	"Internal":          85.615223,
	"Wikia":             52.341871,
	"Wikipedia":         157.905363,
	"SecondLife":        317.992951,
	"ALL":               506.182408,
	"SecondLife-disk":   363.738055,
	"Wikipedia-mixed":   201.395991,
	"SecondLife-halved": 401.594850,
	"SecondLife-pinned": 320.462826,
}

// matrixObjectiveTolerance is how far a fleet's objective sum may rise above
// matrixObjective's, as a fraction of it.
const matrixObjectiveTolerance = 0.001

// matrixCounts returns BenchmarkResolveMatrix's committed counts by fleet
// from BENCH_counts.json at the repository root, the rows the count gate
// holds: the matrix's counts have that one owner, and a change that lowers
// and re-captures them tightens this test's bound too.
func matrixCounts(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../../BENCH_counts.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[string]float64{}
	for _, r := range doc.Results {
		if name, ok := strings.CutPrefix(r.Name, "BenchmarkResolveMatrix/"); ok {
			counts[name] = r.Metrics
		}
	}
	return counts
}

// TestResolveMatrix holds every fleet's re-solves to the bound: Σ K and the
// infeasible count may not rise above the committed counts, nor the
// objective sum by more than matrixObjectiveTolerance of matrixObjective —
// a little over twice the largest rise climbing the warm seed alone made,
// so a fleet whose plans worsen across the board fails where one plan
// re-balanced at the same K does not.
func TestResolveMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	counts := matrixCounts(t)
	for _, d := range matrixDatasets {
		c, obj := counts[d.name], matrixObjective[d.name]
		if c == nil {
			t.Errorf("%s: no BenchmarkResolveMatrix row in BENCH_counts.json", d.name)
			continue
		}
		p := d.problem()
		row := resolveMatrix(t, p, matrixIncumbent(t, p))
		if float64(row.k) > c["machines"] || float64(row.infeasible) > c["infeasible"] || row.objective > obj*(1+matrixObjectiveTolerance) {
			t.Errorf("%s: Σ K %d, %d infeasible, objective sum %.6f; bound %g, %g, %.6f (+%.1f %%)", d.name,
				row.k, row.infeasible, row.objective, c["machines"], c["infeasible"], obj, 100*matrixObjectiveTolerance)
		}
	}
}

// TestResolveReclaimsMachineOnPinnedFleet: on one machine class Resolve's
// reduction pass keeps every pin, so a pinned fleet that drift left with a
// spare machine gives it back. SecondLife-pinned after a 30 % phase shift
// (seed 2) fits on 10 machines; a pass that moved a pin off its machine had
// its plan discarded and kept 11.
func TestResolveReclaimsMachineOnPinnedFleet(t *testing.T) {
	p := secondLifePinned()
	q := phaseShift(0.30)(p, 2)
	sol, err := core.Resolve(context.Background(), q, matrixIncumbent(t, p), core.DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K > 10 {
		t.Errorf("K %d, feasible %v; want a feasible plan at K ≤ 10", sol.K, sol.Feasible)
	}
	for u, ref := range sol.Units {
		if pin := q.Workloads[ref.Workload].PinTo; ref.Replica == 0 && pin >= 0 && sol.Assign[u] != pin {
			t.Errorf("workload %d on machine %d, pinned to %d", ref.Workload, sol.Assign[u], pin)
		}
	}
}

// BenchmarkResolveMatrix times each dataset's 18 re-solves and reports
// their counts: machines is Σ K, infeasible the plans left infeasible,
// migrated Σ units moved and fevals Σ objective evaluations. The count gate
// (make bench-counts) holds all four; TestResolveMatrix holds machines and
// infeasible to the same committed rows.
func BenchmarkResolveMatrix(b *testing.B) {
	for _, d := range matrixDatasets {
		b.Run(d.name, func(b *testing.B) {
			p := d.problem()
			inc := matrixIncumbent(b, p)
			var row matrixRow
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row = resolveMatrix(b, p, inc)
			}
			b.StopTimer()
			b.ReportMetric(float64(row.k), "machines")
			b.ReportMetric(float64(row.infeasible), "infeasible")
			b.ReportMetric(float64(row.migrated), "migrated")
			b.ReportMetric(float64(row.fevals), "fevals")
		})
	}
}
