package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"kairos/internal/floats"
	"kairos/internal/series"
)

// driftProblem returns a copy of p with every workload's series scaled by a
// deterministic per-workload factor in [1-frac, 1+frac] — the week-over-week
// drift a rolling re-consolidation faces.
func driftProblem(p *Problem, frac float64, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	out := *p
	out.Workloads = make([]Workload, len(p.Workloads))
	for i, w := range p.Workloads {
		f := 1 + (rng.Float64()*2-1)*frac
		out.Workloads[i] = w
		out.Workloads[i].CPU = w.CPU.Scale(f).Clamp(0, 1)
		out.Workloads[i].RAMBytes = w.RAMBytes.Scale(f)
		if w.WSBytes != nil {
			out.Workloads[i].WSBytes = w.WSBytes.Scale(f)
		}
		if w.UpdateRate != nil {
			out.Workloads[i].UpdateRate = w.UpdateRate.Scale(f)
		}
	}
	return &out
}

// TestResolveWarmVsColdDrift is the headline acceptance test: on a mildly
// (≤5%) drifted fleet the warm-started re-solve must reach a plan at least
// as good as the cold local-search solve's — by construction, since the
// cold seeds enter as candidates — with measurably fewer objective
// evaluations than a full cold solve, while the default sticky
// configuration migrates only a bounded fraction of the units.
func TestResolveWarmVsColdDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	p := randomLoadStateProblem(rng, 24, 24, false)
	opt := DefaultSolveOptions()
	prev, err := Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Feasible {
		t.Fatal("baseline solve infeasible")
	}
	inc := IncumbentFromSolution(p, prev)

	drifted := driftProblem(p, 0.05, 42)
	cold, err := Solve(context.Background(), drifted, opt) // full cold solve: DIRECT + local search
	if err != nil {
		t.Fatal(err)
	}
	sdOpt := opt
	sdOpt.SkipDirect = true
	coldLocal, err := Solve(context.Background(), drifted, sdOpt) // like-for-like cold local search
	if err != nil {
		t.Fatal(err)
	}

	// Free warm re-solve (no migration pricing): must dominate the cold
	// local-search plan outright.
	freeOpt := DefaultResolveOptions()
	freeOpt.MigrationWeight = 0
	free, err := Resolve(context.Background(), drifted, inc, freeOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !free.Feasible {
		t.Fatal("warm re-solve infeasible")
	}
	if free.K > coldLocal.K {
		t.Fatalf("warm K = %d, cold local K = %d — warm start lost machines", free.K, coldLocal.K)
	}
	if free.K == coldLocal.K && free.Objective > coldLocal.Objective+1e-9 {
		t.Errorf("warm objective %v worse than cold local search %v at equal K", free.Objective, coldLocal.Objective)
	}
	if free.Fevals*2 >= cold.Fevals {
		t.Errorf("warm re-solve used %d fevals, full cold solve %d — want less than half", free.Fevals, cold.Fevals)
	}
	if free.Fevals*4 >= coldLocal.Fevals*3 {
		t.Errorf("warm re-solve used %d fevals, cold local search %d — want measurably fewer", free.Fevals, coldLocal.Fevals)
	}

	// Sticky warm re-solve (default migration weight): near-cold quality at
	// a bounded migration fraction.
	sticky, err := Resolve(context.Background(), drifted, inc, DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sticky.Feasible {
		t.Fatal("sticky warm re-solve infeasible")
	}
	nU := len(sticky.Assign)
	if sticky.Migrated*4 > nU {
		t.Errorf("sticky re-solve migrated %d of %d units — want at most a quarter under 5%% drift", sticky.Migrated, nU)
	}
	if sticky.K == coldLocal.K && sticky.Objective > coldLocal.Objective*1.005 {
		t.Errorf("sticky objective %v more than 0.5%% over cold local search %v", sticky.Objective, coldLocal.Objective)
	}
	t.Logf("cold: K=%d obj=%.6f fevals=%d; cold local: K=%d obj=%.6f fevals=%d",
		cold.K, cold.Objective, cold.Fevals, coldLocal.K, coldLocal.Objective, coldLocal.Fevals)
	t.Logf("warm free:   K=%d obj=%.6f fevals=%d migrated=%d/%d",
		free.K, free.Objective, free.Fevals, free.Migrated, nU)
	t.Logf("warm sticky: K=%d obj=%.6f fevals=%d migrated=%d/%d (cost %.4f)",
		sticky.K, sticky.Objective, sticky.Fevals, sticky.Migrated, nU, sticky.MigrationCost)
}

// TestIncumbentSaveLoadRoundTrip checks the plan file round-trips exactly
// and that a reloaded incumbent warm-seeds Resolve with the identical seed
// state the in-memory incumbent produces.
func TestIncumbentSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomLoadStateProblem(rng, 10, 12, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)

	var buf bytes.Buffer
	if err := inc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIncumbent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc, loaded) {
		t.Fatalf("round trip mismatch:\n saved  %+v\n loaded %+v", inc, loaded)
	}

	ev1, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	seed1, home1 := ev1.warmSeed(p, inc, inc.K)
	seed2, home2 := ev2.warmSeed(p, loaded, loaded.K)
	if !reflect.DeepEqual(seed1, seed2) || !reflect.DeepEqual(home1, home2) {
		t.Fatal("reloaded incumbent produces a different warm seed")
	}
	// Zero drift: the incumbent is already a move+swap-stable plan, so the
	// re-solve must keep every unit at home.
	warm, err := Resolve(context.Background(), p, loaded, DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Migrated != 0 {
		t.Errorf("no-drift re-solve migrated %d units, want 0", warm.Migrated)
	}
	if warm.K != sol.K {
		t.Errorf("no-drift re-solve K = %d, want incumbent %d", warm.K, sol.K)
	}
	if warm.Objective > sol.Objective+1e-9 {
		t.Errorf("no-drift re-solve objective %v worse than incumbent %v", warm.Objective, sol.Objective)
	}

	// Corrupt / empty plans are rejected.
	if _, err := LoadIncumbent(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := LoadIncumbent(bytes.NewBufferString(`{"k":0,"units":[]}`)); err == nil {
		t.Error("empty plan accepted")
	}
}

// TestResolveMatchesByName reorders the workload list between runs: the
// incumbent must still map every unit to its old machine by workload name,
// so nothing migrates under zero drift.
func TestResolveMatchesByName(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := randomLoadStateProblem(rng, 12, 12, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)

	perm := *p
	perm.Workloads = make([]Workload, len(p.Workloads))
	order := rng.Perm(len(p.Workloads))
	for i, j := range order {
		perm.Workloads[i] = p.Workloads[j]
	}
	warm, err := Resolve(context.Background(), &perm, inc, DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Migrated != 0 {
		t.Fatalf("reordered fleet migrated %d units, want 0 (name matching failed)", warm.Migrated)
	}
	// Every unit sits on the machine the incumbent recorded for its name.
	byName := map[string]map[int]int{}
	for _, iu := range inc.Units {
		if byName[iu.Workload] == nil {
			byName[iu.Workload] = map[int]int{}
		}
		byName[iu.Workload][iu.Replica] = iu.Machine
	}
	for i, j := range warm.Assign {
		ref := warm.Units[i]
		name := perm.Workloads[ref.Workload].Name
		if want, ok := byName[name][ref.Replica]; ok && want != j {
			t.Errorf("unit %s/r%d on machine %d, incumbent had %d", name, ref.Replica, j, want)
		}
	}
}

// TestResolveHonorsMigrationCap forces heavy drift and checks the climb
// never exceeds SolveOptions.MaxMigrations.
func TestResolveHonorsMigrationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := randomLoadStateProblem(rng, 16, 16, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)
	drifted := driftProblem(p, 0.25, 9)

	opt := DefaultResolveOptions()
	opt.MaxMigrations = 3
	warm, err := Resolve(context.Background(), drifted, inc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Migrated > 3 {
		t.Errorf("migrated %d units with MaxMigrations=3", warm.Migrated)
	}
}

// TestResolveHandlesFleetChanges removes one workload and adds two new ones
// between runs: matched units keep their incumbent homes, the new units are
// placed, and the plan stays feasible.
func TestResolveHandlesFleetChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	p := randomLoadStateProblem(rng, 14, 12, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)

	next := *p
	next.Workloads = append([]Workload(nil), p.Workloads[1:]...) // drop w0
	start := time.Unix(0, 0)
	for _, name := range []string{"new0", "new1"} {
		next.Workloads = append(next.Workloads, Workload{
			Name:     name,
			CPU:      series.Constant(start, 5*time.Minute, 12, 0.15),
			RAMBytes: series.Constant(start, 5*time.Minute, 12, 2e9),
			PinTo:    -1,
		})
	}
	warm, err := Resolve(context.Background(), &next, inc, DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Feasible {
		t.Fatal("re-solve with fleet changes infeasible")
	}
	for i, j := range warm.Assign {
		if j < 0 || j >= warm.K {
			t.Fatalf("unit %d assigned out of range: %d", i, j)
		}
	}
}

// TestResolveDeterministicAcrossWorkers pins the reproducibility contract:
// each candidate climb is a deterministic function of its seed and they
// are folded in seed order, however many run side by side, so one core
// and eight yield the bit-identical plan.
func TestResolveDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomLoadStateProblem(rng, 12, 12, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)
	drifted := driftProblem(p, 0.08, 4)

	resolveAt := func(procs int) *Solution {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := Resolve(context.Background(), drifted, inc, DefaultResolveOptions())
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return s
	}
	w1, w8 := resolveAt(1), resolveAt(8)
	if !reflect.DeepEqual(w1.Assign, w8.Assign) || w1.K != w8.K || !floats.Same(w1.Objective, w8.Objective) {
		t.Fatalf("plans differ across core counts: K %d vs %d, obj %v vs %v",
			w1.K, w8.K, w1.Objective, w8.Objective)
	}
}

// TestResolveRejectsEmptyIncumbent covers the error path.
func TestResolveRejectsEmptyIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomLoadStateProblem(rng, 6, 8, false)
	if _, err := Resolve(context.Background(), p, nil, DefaultResolveOptions()); err == nil {
		t.Error("nil incumbent accepted")
	}
	if _, err := Resolve(context.Background(), p, &Incumbent{}, DefaultResolveOptions()); err == nil {
		t.Error("empty incumbent accepted")
	}
}

// TestHillClimbSwapEscapesLocalOptimum constructs the canonical trap for
// single-unit moves: two 0.55-CPU units share a machine while two 0.45-CPU
// units share the other. No single move helps (the receiving machine would
// exceed capacity by more), but swapping a 0.55 for a 0.45 balances both at
// exactly 1.0 — which the at-capacity boundary rule prices as feasible.
func TestHillClimbSwapEscapesLocalOptimum(t *testing.T) {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	T := 4
	mkw := func(name string, cpu float64) Workload {
		return Workload{
			Name:     name,
			CPU:      series.Constant(start, step, T, cpu),
			RAMBytes: series.Constant(start, step, T, 1e9),
			PinTo:    -1,
		}
	}
	p := &Problem{
		Workloads: []Workload{mkw("a", 0.55), mkw("b", 0.55), mkw("c", 0.45), mkw("d", 0.45)},
		Machines: []Machine{
			{Name: "m0", CPUCapacity: 1, RAMBytes: 64e9},
			{Name: "m1", CPUCapacity: 1, RAMBytes: 64e9},
		},
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 1, 1} // 1.10 vs 0.90: stuck for single moves
	c := ev.hillClimb(context.Background(), assign, 2)
	got := c.assign
	if !c.feas {
		t.Fatalf("swap sweep failed to escape the local optimum: assignment %v", got)
	}
	if got[0] == got[1] {
		t.Errorf("heavy units still share machine %d in %v", got[0], got)
	}
}

// TestResolveMatchesMachinesByName reorders a *heterogeneous* machine list
// between runs: the incumbent records machine names, so every unit must be
// re-homed onto the same hardware (by name), not the same positional index
// — and nothing migrates under zero drift.
func TestResolveMatchesMachinesByName(t *testing.T) {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	T := 8
	mkw := func(name string, cpu float64) Workload {
		return Workload{
			Name:     name,
			CPU:      series.Constant(start, step, T, cpu),
			RAMBytes: series.Constant(start, step, T, 2e9),
			PinTo:    -1,
		}
	}
	big := Machine{Name: "big", CPUCapacity: 2, RAMBytes: 64e9}
	small := Machine{Name: "small", CPUCapacity: 1, RAMBytes: 32e9}
	p := &Problem{
		Workloads: []Workload{mkw("a", 0.9), mkw("b", 0.8), mkw("c", 0.4), mkw("d", 0.3)},
		Machines:  []Machine{big, small},
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Fatalf("baseline: K=%d feasible=%v, want 2 machines", sol.K, sol.Feasible)
	}
	inc := IncumbentFromSolution(p, sol)
	nameOf := func(prob *Problem, j int) string { return prob.Machines[j].Name }
	wantMachine := map[string]string{}
	for _, iu := range inc.Units {
		wantMachine[iu.Workload] = iu.MachineName
	}

	// Same fleet, machines listed in the opposite order.
	perm := *p
	perm.Machines = []Machine{small, big}
	warm, err := Resolve(context.Background(), &perm, inc, DefaultResolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Migrated != 0 {
		t.Errorf("reordered machine list migrated %d units, want 0 (machine-name matching failed)", warm.Migrated)
	}
	for i, j := range warm.Assign {
		name := perm.Workloads[warm.Units[i].Workload].Name
		if got, want := nameOf(&perm, j), wantMachine[name]; got != want {
			t.Errorf("unit %s on machine %q, incumbent had %q", name, got, want)
		}
	}
}

// TestResolvePinChangeNotCountedAsMigration pins a workload to a different
// machine than its incumbent: the forced move is not a churn decision, so
// it must neither count toward Solution.Migrated nor consume the
// MaxMigrations budget.
func TestResolvePinChangeNotCountedAsMigration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := randomLoadStateProblem(rng, 10, 12, false)
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)

	// Pin workload 0 (replica 0) to a machine other than its incumbent.
	var incMachine int
	for _, iu := range inc.Units {
		if iu.Workload == "w0" && iu.Replica == 0 {
			incMachine = iu.Machine
		}
	}
	next := *p
	next.Workloads = append([]Workload(nil), p.Workloads...)
	next.Workloads[0].PinTo = (incMachine + 1) % sol.K

	opt := DefaultResolveOptions()
	opt.MaxMigrations = 1
	warm, err := Resolve(context.Background(), &next, inc, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range warm.Assign {
		if warm.Units[i].Workload == 0 && warm.Units[i].Replica == 0 && j != next.Workloads[0].PinTo {
			t.Errorf("pinned unit on machine %d, want pin %d", j, next.Workloads[0].PinTo)
		}
	}
	if warm.Migrated > 1 {
		t.Errorf("Migrated = %d with MaxMigrations=1 and one forced pin change", warm.Migrated)
	}
	if warm.MigrationCost > 0 && warm.Migrated == 0 {
		t.Errorf("migration cost %v charged with no counted migrations", warm.MigrationCost)
	}
}

// TestPriceIncumbent: pricing the incumbent on the problem it was solved
// against reproduces the solution's objective exactly, pricing it on a
// drifted problem reports the (usually worse) stale-plan objective that a
// triggered re-solve must beat, and invalid incumbents error.
func TestPriceIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomLoadStateProblem(rng, 16, 24, false)
	opt := DefaultSolveOptions()
	opt.SkipDirect = true
	sol, err := Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	inc := IncumbentFromSolution(p, sol)

	obj, feas, K, err := PriceIncumbent(p, inc)
	if err != nil {
		t.Fatal(err)
	}
	if K != sol.K {
		t.Errorf("K = %d, want %d", K, sol.K)
	}
	if feas != sol.Feasible || !floats.Same(obj, sol.Objective) {
		t.Errorf("priced (%v, %v), want the solution's own (%v, %v)",
			obj, feas, sol.Objective, sol.Feasible)
	}

	// On a drifted fleet the stale plan prices worse than (or equal to) a
	// warm re-solve's combined outcome at the same K.
	drifted := driftProblem(p, 0.05, 7)
	staleObj, _, staleK, err := PriceIncumbent(drifted, inc)
	if err != nil {
		t.Fatal(err)
	}
	ropt := DefaultResolveOptions()
	ropt.MigrationWeight = 0
	warm, err := Resolve(context.Background(), drifted, inc, ropt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.K == staleK && warm.Objective > staleObj+1e-9 {
		t.Errorf("re-solve objective %v worse than the stale plan's %v at K=%d",
			warm.Objective, staleObj, warm.K)
	}

	if !floats.Same(warm.SeedObjective, staleObj) {
		t.Errorf("Resolve priced its seed at %v, PriceIncumbent the incumbent at %v", warm.SeedObjective, staleObj)
	}

	if _, _, _, err := PriceIncumbent(p, nil); err == nil {
		t.Error("nil incumbent accepted")
	}
	if _, _, _, err := PriceIncumbent(p, &Incumbent{K: 0}); err == nil {
		t.Error("empty incumbent accepted")
	}
	if _, _, _, err := PriceIncumbent(&Problem{}, inc); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestResolveReportsSeedPrice: the seed price a Resolve reports is
// PriceIncumbent's for the same problem and incumbent, bit for bit — on a
// drifted fleet with and without the disk model, on one that lost a workload
// and gained two (the seed places them), and on one overloaded past the
// incumbent's K — and it is not counted: with no unit to place and no climb
// after the candidates, Resolve's Fevals are its candidate climbs'.
func TestResolveReportsSeedPrice(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	start := time.Unix(0, 0)
	infeasible, exact := false, false
	for _, withDisk := range []bool{false, true} {
		p := randomLoadStateProblem(rng, 16, 24, withDisk)
		opt := DefaultSolveOptions()
		opt.SkipDirect = true
		sol, err := Solve(context.Background(), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		inc := IncumbentFromSolution(p, sol)

		changed := *p
		changed.Workloads = append([]Workload(nil), p.Workloads[1:]...)
		for _, name := range []string{"new0", "new1"} {
			w := Workload{
				Name:     name,
				CPU:      series.Constant(start, 5*time.Minute, 24, 0.15),
				RAMBytes: series.Constant(start, 5*time.Minute, 24, 2e9),
				PinTo:    -1,
			}
			if withDisk {
				w.WSBytes = series.Constant(start, 5*time.Minute, 24, 1e9)
				w.UpdateRate = series.Constant(start, 5*time.Minute, 24, 900)
			}
			changed.Workloads = append(changed.Workloads, w)
		}
		overloaded := *p
		overloaded.Workloads = append([]Workload(nil), p.Workloads...)
		for i := range overloaded.Workloads {
			w := &overloaded.Workloads[i]
			w.CPU = w.CPU.Scale(1.6).Clamp(0, 1)
		}
		for _, c := range []struct {
			name string
			q    *Problem
		}{{"drifted", driftProblem(p, 0.05, 3)}, {"changed", &changed}, {"overloaded", &overloaded}} {
			name, q := c.name, c.q
			wantObj, wantFeas, _, err := PriceIncumbent(q, inc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Resolve(context.Background(), q, inc, DefaultResolveOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !floats.Same(got.SeedObjective, wantObj) || got.SeedFeasible != wantFeas {
				t.Errorf("disk=%v %s: Resolve's seed price (%v, %v), PriceIncumbent (%v, %v)",
					withDisk, name, got.SeedObjective, got.SeedFeasible, wantObj, wantFeas)
			}
			climbs := 0
			for _, c := range got.Stats.Candidates {
				climbs += c.Fevals
			}
			// Placing new units scans their moves, which count.
			onlyClimbs := got.Stats.Climbs == len(got.Stats.Candidates) && c.name != "changed"
			if len(got.Stats.Candidates) < 2 || got.Fevals < climbs || (onlyClimbs && got.Fevals != climbs) {
				t.Errorf("disk=%v %s: %d fevals, %d climbs, candidate climbs %d fevals in all (%d candidates)",
					withDisk, name, got.Fevals, got.Stats.Climbs, climbs, len(got.Stats.Candidates))
			}
			exact = exact || onlyClimbs
			infeasible = infeasible || !wantFeas
		}
	}
	if !infeasible || !exact {
		t.Errorf("no case priced an infeasible seed (%v) or ran only the candidate climbs (%v)", infeasible, exact)
	}
}
