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

// The scenario ledger judges a solver on the drift a fleet sees between two
// consolidations, scenario by scenario rather than on one case: each fleet's
// cold local-search plan is its incumbent, and each of six perturbations at
// three seeds is a scenario — every workload's amplitude drifted by up to
// ±2, 5, 10 or 20 %, or 10 % or 30 % of the workloads phase-shifted by two
// hours (24 five-minute steps). A column answers every scenario with a plan,
// and the ledger sums a column's plans per fleet. BenchmarkResolveMatrix
// reports each sum as the row BenchmarkResolveMatrix/<column>/<fleet>;
// BENCH_counts.json commits the rows, the count gate holds every column to
// them and TestResolveMatrix holds the warm column in tier-1. The sums repeat
// exactly on any machine. A new measurement of plan quality is a column and
// its committed rows, not another loop over the scenarios.

// matrixFleet names a fleet of the ledger and builds it afresh.
type matrixFleet struct {
	name    string
	problem func() *core.Problem
}

// matrixFleets are the ledger's fleets: the paper's four datasets and their
// union on one class of target machine; SecondLife under the disk model;
// Wikipedia and SecondLife with every 10th machine at full size and the
// rest at half the CPU and RAM (4 and 10 full machines, fewer than most of
// their plans need); SecondLife with three workloads pinned to the first
// three machines; SecondLife with every 12th machine at full size and the
// rest at half (9 full machines, fewer than any plan needs); and SecondLife
// and Wikipedia with every other machine at twice the CPU and half the RAM
// (two classes neither of which dominates).
var matrixFleets = []matrixFleet{
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
	{"Wikipedia-fewbig10", func() *core.Problem { return fewBig(fleetCase(fleet.Wikipedia), 10) }},
	{"SecondLife-fewbig10", func() *core.Problem { return fewBig(fleetCase(fleet.SecondLife), 10) }},
	{"SecondLife-pinned", secondLifePinned},
	{"SecondLife-fewbig", func() *core.Problem { return fewBig(fleetCase(fleet.SecondLife), 12) }},
	{"SecondLife-complementary", func() *core.Problem { return complementary(fleetCase(fleet.SecondLife)) }},
	{"Wikipedia-complementary", func() *core.Problem { return complementary(fleetCase(fleet.Wikipedia)) }},
}

// fewBig keeps every n-th machine of p at full size and gives the rest half
// the CPU and RAM: two machine classes, one dominating the other.
func fewBig(p *core.Problem, n int) *core.Problem {
	for j := range p.Machines {
		if j%n != 0 {
			p.Machines[j].CPUCapacity /= 2
			p.Machines[j].RAMBytes /= 2
		}
	}
	return p
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

// localSearch is the cold solve of a fleet: Solve's defaults without DIRECT.
func localSearch() core.SolveOptions {
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	return opt
}

// matrixIncumbent is p's cold local-search plan, the ledger's incumbent.
func matrixIncumbent(tb testing.TB, p *core.Problem) *core.Incumbent {
	tb.Helper()
	cold, err := core.Solve(context.Background(), p, localSearch())
	if err != nil {
		tb.Fatal(err)
	}
	return core.IncumbentFromSolution(p, cold)
}

// scenario is one cell of the ledger: a fleet, its incumbent and one
// perturbation of its workloads at one seed.
type scenario struct {
	fleet   string
	base    *core.Problem
	inc     *core.Incumbent
	perturb func(*core.Problem, int64) *core.Problem
	seed    int64
}

// matrixScenarios builds the ledger's 216 scenarios, one slice of 18 per
// fleet in matrixFleets' order. A scenario's perturbed fleet is built when a
// column asks for it, so the ledger holds 12 fleets in memory, not 216.
func matrixScenarios(tb testing.TB) [][]scenario {
	tb.Helper()
	var out [][]scenario
	for _, f := range matrixFleets {
		p := f.problem()
		inc := matrixIncumbent(tb, p)
		var ss []scenario
		for _, perturb := range []func(*core.Problem, int64) *core.Problem{
			driftBy(0.02), driftBy(0.05), driftBy(0.10), driftBy(0.20),
			phaseShift(0.10), phaseShift(0.30),
		} {
			for seed := int64(1); seed <= 3; seed++ {
				ss = append(ss, scenario{f.name, p, inc, perturb, seed})
			}
		}
		out = append(out, ss)
	}
	return out
}

// column answers a scenario's perturbed fleet p, whose incumbent is inc,
// with a plan.
type column func(p *core.Problem, inc *core.Incumbent) (*core.Solution, error)

// matrixColumns are the ledger's columns. warm is Resolve from the incumbent
// with DefaultResolveOptions, what a drift trigger runs. cold is the
// local-search solve that ignores the incumbent, the K a warm re-solve is
// judged against; a cold plan has no incumbent, so its migrated reads 0.
var matrixColumns = []struct {
	name  string
	solve column
}{
	{"warm", warmColumn},
	{"cold", func(p *core.Problem, _ *core.Incumbent) (*core.Solution, error) {
		return core.Solve(context.Background(), p, localSearch())
	}},
}

// warmColumn is the warm column's solve, the one TestResolveMatrix runs.
func warmColumn(p *core.Problem, inc *core.Incumbent) (*core.Solution, error) {
	return core.Resolve(context.Background(), p, inc, core.DefaultResolveOptions())
}

// ledgerRow sums one column's plans over one fleet's scenarios: machines,
// plans left infeasible, units migrated, objective evaluations and the
// canonical objective.
type ledgerRow struct {
	k, infeasible, migrated, fevals int
	objective                       float64
}

// counts is the row without its objective.
func (r ledgerRow) counts() [4]int { return [4]int{r.k, r.infeasible, r.migrated, r.fevals} }

// ledger sums col's plans of the scenarios ss.
func ledger(tb testing.TB, col column, ss []scenario) ledgerRow {
	tb.Helper()
	var row ledgerRow
	for _, s := range ss {
		sol, err := col(s.perturb(s.base, s.seed), s.inc)
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

// ledgerBounds returns BenchmarkResolveMatrix's committed rows from
// BENCH_counts.json at the repository root, keyed "<column>/<fleet>": the
// rows the count gate holds. The ledger's bounds have that one owner, and a
// change that lowers and re-captures them tightens this test's bound too.
func ledgerBounds(t *testing.T) map[string]map[string]float64 {
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
	bounds := map[string]map[string]float64{}
	for _, r := range doc.Results {
		if name, ok := strings.CutPrefix(r.Name, "BenchmarkResolveMatrix/"); ok {
			bounds[name] = r.Metrics
		}
	}
	return bounds
}

// TestResolveMatrix holds the warm column to its committed rows: per fleet,
// Σ K, the infeasible count and the objective sum may not rise above them.
// The committed objective carries 0.1 % above the sum it was captured from,
// a little over twice the largest rise of a fleet's sum that a change
// keeping every K has made (+0.044 %), so a fleet whose plans worsen
// across the board fails. It also fails when a column or fleet has no
// committed row, and when two fleets' warm rows are equal on every count:
// such a fleet tests nothing the other does not.
func TestResolveMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	bounds := ledgerBounds(t)
	for _, col := range matrixColumns {
		for _, f := range matrixFleets {
			if bounds[col.name+"/"+f.name] == nil {
				t.Errorf("no BenchmarkResolveMatrix/%s/%s row in BENCH_counts.json", col.name, f.name)
			}
		}
	}
	var names []string
	var rows []ledgerRow
	for _, ss := range matrixScenarios(t) {
		name := ss[0].fleet
		row := ledger(t, warmColumn, ss)
		if c := bounds["warm/"+name]; c != nil &&
			(float64(row.k) > c["machines"] || float64(row.infeasible) > c["infeasible"] || row.objective > c["objective"]) {
			t.Errorf("%s: Σ K %d, %d infeasible, objective sum %.6f; bound %g, %g, %.6f",
				name, row.k, row.infeasible, row.objective, c["machines"], c["infeasible"], c["objective"])
		}
		for i, r := range rows {
			if r.counts() == row.counts() {
				t.Errorf("%s repeats %s on every count %v", name, names[i], row.counts())
			}
		}
		names, rows = append(names, name), append(rows, row)
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

// TestPlanIgnoresMachineListOrder: on fleets of several machine classes, the
// machine list reversed and shuffled at two seeds gives Solve, SolveSharded
// and Resolve — the latter from the incumbent of the list as given, matched
// by machine name, after a ±10 % drift — the same K, the same objective bit
// for bit, and every unit on the machine of the same name. SolvePartitioned
// in groups of 25 gives a feasible plan of the same K and group objectives:
// its first groups leave the later ones a share of every class. The fleets
// are Wikipedia and SecondLife with every other machine at half size, where
// a list order that put the small class first once decided K, and three of
// the ledger's.
func TestPlanIgnoresMachineListOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector")
	}
	opt := localSearch()
	for _, d := range []matrixFleet{
		{"Wikipedia-mixed", func() *core.Problem { return fewBig(fleetCase(fleet.Wikipedia), 2) }},
		{"SecondLife-halved", func() *core.Problem { return fewBig(fleetCase(fleet.SecondLife), 2) }},
		{"SecondLife-fewbig", func() *core.Problem { return fewBig(fleetCase(fleet.SecondLife), 12) }},
		{"SecondLife-complementary", func() *core.Problem { return complementary(fleetCase(fleet.SecondLife)) }},
		{"Wikipedia-complementary", func() *core.Problem { return complementary(fleetCase(fleet.Wikipedia)) }},
	} {
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

// BenchmarkResolveMatrix times each column's plans of each fleet's 18
// scenarios and reports the ledger's row: machines is Σ K, infeasible the
// plans left infeasible, migrated Σ units moved, fevals Σ objective
// evaluations and objective Σ canonical objective. The count gate (make
// bench-counts) holds all five of every row; TestResolveMatrix holds the
// warm rows' machines, infeasible and objective in tier-1.
func BenchmarkResolveMatrix(b *testing.B) {
	fleets := matrixScenarios(b)
	for _, col := range matrixColumns {
		b.Run(col.name, func(b *testing.B) {
			for _, ss := range fleets {
				b.Run(ss[0].fleet, func(b *testing.B) {
					var row ledgerRow
					for i := 0; i < b.N; i++ {
						row = ledger(b, col.solve, ss)
					}
					b.ReportMetric(float64(row.k), "machines")
					b.ReportMetric(float64(row.infeasible), "infeasible")
					b.ReportMetric(float64(row.migrated), "migrated")
					b.ReportMetric(float64(row.fevals), "fevals")
					b.ReportMetric(row.objective, "objective")
				})
			}
		})
	}
}
