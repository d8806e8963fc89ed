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
	"kairos/internal/floats"
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
// and RAM (two classes, one dominating the other); SecondLife with three
// workloads pinned to the first three machines; SecondLife with every 12th
// machine at full size and the rest at half the CPU and RAM (9 full
// machines, fewer than any plan needs); and SecondLife and Wikipedia with
// every other machine at twice the CPU and half the RAM (two classes
// neither of which dominates).
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
	{"SecondLife-fewbig", func() *core.Problem {
		p := fleetCase(fleet.SecondLife)
		for j := range p.Machines {
			if j%12 != 0 {
				p.Machines[j].CPUCapacity /= 2
				p.Machines[j].RAMBytes /= 2
			}
		}
		return p
	}},
	{"SecondLife-complementary", func() *core.Problem { return complementary(fleetCase(fleet.SecondLife)) }},
	{"Wikipedia-complementary", func() *core.Problem { return complementary(fleetCase(fleet.Wikipedia)) }},
}

// complementary gives every other machine of p twice the CPU and half the
// RAM: two machine classes neither of which dominates the other.
func complementary(p *core.Problem) *core.Problem {
	for j := 1; j < len(p.Machines); j += 2 {
		p.Machines[j].CPUCapacity *= 2
		p.Machines[j].RAMBytes /= 2
	}
	return p
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
// 11 → 10) and the sum fell 0.017 %. On several machine classes Resolve
// climbed both cold seeds too while it solved on the caller's machine
// order; on the solver's own order (the full-size class first where one
// class dominates) it climbs the warm seed alone on every fleet.
// Wikipedia-mixed's and SecondLife-halved's sums then fell to Wikipedia's
// and SecondLife's (201.395991 → 157.905363, 401.594850 → 317.901574), and
// SecondLife-fewbig's 567.520149 → 366.205536, as those rows hold. The
// complementary fleets' are the caller's-order sums: on the solver's order
// SecondLife-complementary's rose 0.04 % to 255.745598 and
// Wikipedia-complementary's held.
var matrixObjective = map[string]float64{
	"Internal":                 85.615223,
	"Wikia":                    52.341871,
	"Wikipedia":                157.905363,
	"SecondLife":               317.992951,
	"ALL":                      506.182408,
	"SecondLife-disk":          363.738055,
	"Wikipedia-mixed":          157.905363,
	"SecondLife-halved":        317.901574,
	"SecondLife-pinned":        320.462826,
	"SecondLife-fewbig":        366.205536,
	"SecondLife-complementary": 255.642703,
	"Wikipedia-complementary":  150.119156,
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

// TestPlanIgnoresMachineListOrder: on the matrix's fleets of several machine
// classes, the machine list reversed and shuffled at two seeds gives Solve,
// SolveSharded and Resolve — the latter from the incumbent of the list as
// given, matched by machine name, after a ±10 % drift — the same K, the same
// objective bit for bit, and every unit on the machine of the same name.
// SolvePartitioned in groups of 25 gives a feasible plan of the same K and
// group objectives: its first groups leave the later ones a share of every
// class.
func TestPlanIgnoresMachineListOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	fleets := map[string]bool{"Wikipedia-mixed": true, "SecondLife-halved": true,
		"SecondLife-fewbig": true, "SecondLife-complementary": true, "Wikipedia-complementary": true}
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	for _, d := range matrixDatasets {
		if !fleets[d.name] {
			continue
		}
		p := d.problem()
		n := len(p.Machines)
		cold, err := core.Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		inc := core.IncumbentFromSolution(p, cold)
		parts, err := core.SolvePartitioned(context.Background(), p, core.Grouping{GroupSize: 25, Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		if !parts.Feasible {
			t.Errorf("%s SolvePartitioned: infeasible at K %d", d.name, parts.K)
		}
		q := driftBy(0.10)(p, 1)
		warm, err := core.Resolve(context.Background(), q, inc, core.DefaultResolveOptions())
		if err != nil {
			t.Fatal(err)
		}
		reversed := make([]int, n)
		for i := range reversed {
			reversed[i] = n - 1 - i
		}
		for name, perm := range map[string][]int{"reversed": reversed,
			"shuffle 1": rand.New(rand.NewSource(1)).Perm(n), "shuffle 2": rand.New(rand.NewSource(2)).Perm(n)} {
			pp, qq := withMachines(p, perm), withMachines(q, perm)
			sol, err := core.Solve(context.Background(), pp, opt)
			if err != nil {
				t.Fatal(err)
			}
			samePlacement(t, d.name+" Solve "+name, p, cold, pp, sol)
			// SolveSharded solves a list of several classes whole: its plan
			// is Solve's, whatever the list order.
			if sol, err = core.SolveSharded(context.Background(), pp, core.ShardOptions{Shards: 4, Options: opt}); err != nil {
				t.Fatal(err)
			}
			samePlacement(t, d.name+" SolveSharded "+name, p, cold, pp, sol)
			permParts, err := core.SolvePartitioned(context.Background(), pp, core.Grouping{GroupSize: 25, Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			for g, sol := range permParts.Groups {
				if want := parts.Groups[g]; sol.K != want.K || !floats.Same(sol.Objective, want.Objective) {
					t.Errorf("%s SolvePartitioned %s: group %d K %d objective %v, want K %d objective %v",
						d.name, name, g, sol.K, sol.Objective, want.K, want.Objective)
				}
			}
			if sol, err = core.Resolve(context.Background(), qq, inc, core.DefaultResolveOptions()); err != nil {
				t.Fatal(err)
			}
			samePlacement(t, d.name+" Resolve "+name, q, warm, qq, sol)
		}
	}
}

// withMachines returns a copy of p whose machine i is p's machine perm[i].
func withMachines(p *core.Problem, perm []int) *core.Problem {
	q := *p
	q.Machines = make([]core.Machine, len(perm))
	for i, j := range perm {
		q.Machines[i] = p.Machines[j]
	}
	return &q
}

// samePlacement fails unless b, a plan of q, has a's K and objective bits and
// places every unit on the machine of the name a's plan of p gives it.
func samePlacement(t *testing.T, label string, p *core.Problem, a *core.Solution, q *core.Problem, b *core.Solution) {
	t.Helper()
	if a.K != b.K || !floats.Same(a.Objective, b.Objective) {
		t.Errorf("%s: K %d objective %v, want K %d objective %v", label, b.K, b.Objective, a.K, a.Objective)
		return
	}
	for u := range a.Assign {
		if got, want := q.Machines[b.Assign[u]].Name, p.Machines[a.Assign[u]].Name; got != want {
			t.Errorf("%s: unit %d on %s, want %s", label, u, got, want)
			return
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
