package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"kairos/internal/floats"
	"kairos/internal/series"
	units "kairos/internal/unit"
)

// flatWL builds a workload with constant demands.
func flatWL(name string, cpu, ramGB float64, n int) Workload {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	return Workload{
		Name:     name,
		CPU:      series.Constant(start, step, n, cpu),
		RAMBytes: series.Constant(start, step, n, ramGB*1e9),
		PinTo:    -1,
	}
}

// sineWL builds a workload whose CPU oscillates with the given phase.
func sineWL(name string, base, amp, phase float64, ramGB float64, n int) Workload {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	cpu := series.FromFunc(start, step, n, func(_ time.Time, i int) float64 {
		return base + amp*math.Sin(2*math.Pi*float64(i)/float64(n)+phase)
	})
	return Workload{
		Name:     name,
		CPU:      cpu,
		RAMBytes: series.Constant(start, step, n, ramGB*1e9),
		PinTo:    -1,
	}
}

// machines builds k identical machines.
func machines(k int, cpuCap, ramGB float64) []Machine {
	out := make([]Machine, k)
	for i := range out {
		out[i] = Machine{
			Name:        "m" + string(rune('0'+i%10)),
			CPUCapacity: units.TargetCPU(cpuCap),
			RAMBytes:    units.Bytes(ramGB * 1e9),
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	n := 12
	good := &Problem{
		Workloads: []Workload{flatWL("a", 0.2, 1, n)},
		Machines:  machines(2, 1, 8),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Problem)
	}{
		{"no workloads", func(p *Problem) { p.Workloads = nil }},
		{"no machines", func(p *Problem) { p.Machines = nil }},
		{"missing series", func(p *Problem) { p.Workloads[0].CPU = nil }},
		{"shape mismatch", func(p *Problem) {
			p.Workloads[0].RAMBytes = series.Constant(time.Unix(0, 0), 5*time.Minute, n+1, 1)
		}},
		// The measured write rate prices nothing, but the drift detector
		// reads it: a spec of another shape must fail here, not window by
		// window.
		{"disk write shape mismatch", func(p *Problem) {
			p.Workloads[0].DiskWriteBps = series.Constant(time.Unix(0, 0), 5*time.Minute, n+1, 1)
		}},
		{"too many replicas", func(p *Problem) { p.Workloads[0].Replicas = 3 }},
		{"pin out of range", func(p *Problem) { p.Workloads[0].PinTo = 5 }},
		{"bad machine", func(p *Problem) { p.Machines[0].CPUCapacity = 0 }},
		{"bad headroom", func(p *Problem) { p.Machines[0].Headroom = 1 }},
		{"bad anti-affinity", func(p *Problem) { p.AntiAffinity = [][2]int{{0, 9}} }},
		// Zero, negative or non-finite capacities would divide into the
		// objective and poison every comparison with +Inf/NaN.
		{"negative cpu capacity", func(p *Problem) { p.Machines[0].CPUCapacity = -0.5 }},
		{"NaN cpu capacity", func(p *Problem) { p.Machines[0].CPUCapacity = units.TargetCPU(math.NaN()) }},
		{"infinite cpu capacity", func(p *Problem) { p.Machines[0].CPUCapacity = units.TargetCPU(math.Inf(1)) }},
		{"zero ram", func(p *Problem) { p.Machines[0].RAMBytes = 0 }},
		{"negative ram", func(p *Problem) { p.Machines[0].RAMBytes = -1e9 }},
		{"NaN ram", func(p *Problem) { p.Machines[0].RAMBytes = units.Bytes(math.NaN()) }},
		{"NaN headroom", func(p *Problem) { p.Machines[0].Headroom = units.Frac(math.NaN()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Problem{
				Workloads: []Workload{flatWL("a", 0.2, 1, n)},
				Machines:  machines(2, 1, 8),
			}
			tc.mut(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid problem accepted")
			}
		})
	}
}

// TestValidateRejectsBadDiskBudget: with a disk model attached, a machine
// without a positive finite disk write budget must be rejected — serverEval
// would otherwise divide by it.
func TestValidateRejectsBadDiskBudget(t *testing.T) {
	n := 12
	mk := func(budget units.Bps) *Problem {
		w := flatWL("a", 0.2, 1, n)
		w.WSBytes = series.Constant(time.Unix(0, 0), 5*time.Minute, n, 1e9)
		w.UpdateRate = series.Constant(time.Unix(0, 0), 5*time.Minute, n, 100)
		ms := machines(2, 1, 8)
		for i := range ms {
			ms[i].DiskWriteBps = budget
		}
		return &Problem{
			Workloads: []Workload{w},
			Machines:  ms,
			Disk:      syntheticDiskProfile(),
		}
	}
	if err := mk(50e6).Validate(); err != nil {
		t.Fatalf("valid disk budget rejected: %v", err)
	}
	for _, budget := range []units.Bps{0, -1, units.Bps(math.NaN()), units.Bps(math.Inf(1))} {
		if err := mk(budget).Validate(); err == nil {
			t.Errorf("disk budget %v accepted", budget)
		}
	}
}

// TestEvalReportOutOfRangeAgreement pins the shared policy for assignments
// outside [0,K): Eval prices them as pin-style violations (penalty,
// infeasible) while contributing no load, which is exactly the unit Report
// drops — a plan can never price feasible yet display a missing workload.
func TestEvalReportOutOfRangeAgreement(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{flatWL("a", 0.2, 1, n), flatWL("b", 0.3, 1, n)},
		Machines:  machines(2, 1, 8),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, assign := range [][]int{{0, 5}, {0, -1}} {
		obj, feas := ev.Eval(assign, 2)
		if feas {
			t.Errorf("assignment %v priced feasible", assign)
		}
		if obj < penaltyWeight {
			t.Errorf("assignment %v objective %v below the violation penalty", assign, obj)
		}
		report := ev.Report(assign, 2)
		var totalCPU float64
		for _, sl := range report {
			totalCPU += sl.CPUPeak
		}
		if math.Abs(totalCPU-0.2) > 1e-9 {
			t.Errorf("assignment %v: Report places CPU %v, want 0.2 (unit b dropped, like Eval)", assign, totalCPU)
		}
	}
	// In-range assignments stay feasible and unpenalized.
	if obj, feas := ev.Eval([]int{0, 1}, 2); !feas || obj >= penaltyWeight {
		t.Errorf("in-range assignment: obj=%v feasible=%v", obj, feas)
	}
}

func TestSolveTrivialConsolidation(t *testing.T) {
	// Four light workloads fit one machine.
	n := 24
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.1, 1, n), flatWL("b", 0.15, 1, n),
			flatWL("c", 0.2, 1, n), flatWL("d", 0.1, 2, n),
		},
		Machines: machines(4, 1, 16),
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("expected feasible solution")
	}
	if sol.K != 1 {
		t.Errorf("K = %d, want 1 (total CPU 0.55, RAM 5 GB)", sol.K)
	}
	if got := sol.ConsolidationRatio(4); got != 4 {
		t.Errorf("ratio = %v, want 4", got)
	}
}

func TestSolveRespectsCPUCapacity(t *testing.T) {
	// Three workloads of 0.6 CPU each: no two fit together.
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.6, 1, n), flatWL("b", 0.6, 1, n), flatWL("c", 0.6, 1, n),
		},
		Machines: machines(5, 1, 64),
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 3 {
		t.Errorf("K = %d feasible=%v, want 3 machines", sol.K, sol.Feasible)
	}
}

func TestSolveRespectsRAM(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.05, 20, n), flatWL("b", 0.05, 20, n),
			flatWL("c", 0.05, 20, n), flatWL("d", 0.05, 20, n),
		},
		Machines: machines(4, 1, 48), // two 20 GB sets per 48 GB machine
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Errorf("K = %d feasible=%v, want 2 (RAM-bound)", sol.K, sol.Feasible)
	}
}

func TestSolveExploitsTimeVaryingLoad(t *testing.T) {
	// Two anti-phase workloads each peaking at 0.8 CPU but summing to a
	// flat 1.0: only time-aware packing sees they fit one machine.
	n := 48
	p := &Problem{
		Workloads: []Workload{
			sineWL("day", 0.5, 0.3, 0, 1, n),
			sineWL("night", 0.5, 0.3, math.Pi, 1, n),
		},
		Machines: machines(2, 1.05, 16),
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 1 {
		t.Errorf("K = %d feasible=%v, want 1 (anti-phase peaks)", sol.K, sol.Feasible)
	}
	// In-phase versions must not fit: peak 1.6 > 1.05.
	p2 := &Problem{
		Workloads: []Workload{
			sineWL("day1", 0.5, 0.3, 0, 1, n),
			sineWL("day2", 0.5, 0.3, 0, 1, n),
		},
		Machines: machines(2, 1.05, 16),
	}
	sol2, err := Solve(context.Background(), p2, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol2.Feasible || sol2.K != 2 {
		t.Errorf("in-phase: K = %d feasible=%v, want 2", sol2.K, sol2.Feasible)
	}
}

func TestSolveBalancesLoad(t *testing.T) {
	// Six workloads on two machines: the balanced split is 3+3 with equal
	// load, not 4+2.
	n := 12
	var wls []Workload
	for i := 0; i < 6; i++ {
		wls = append(wls, flatWL(string(rune('a'+i)), 0.3, 1, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(2, 1, 32)}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Fatalf("K = %d feasible=%v, want 2", sol.K, sol.Feasible)
	}
	ev, _ := NewEvaluator(p)
	report := ev.Report(sol.Assign, sol.K)
	if math.Abs(report[0].CPUPeak-report[1].CPUPeak) > 1e-9 {
		t.Errorf("unbalanced: %.2f vs %.2f CPU", report[0].CPUPeak, report[1].CPUPeak)
	}
}

func TestReplicationAntiAffinity(t *testing.T) {
	n := 12
	w := flatWL("db", 0.2, 1, n)
	w.Replicas = 3
	p := &Problem{
		Workloads: []Workload{w},
		Machines:  machines(4, 1, 16),
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("replicated workload should be placeable")
	}
	if sol.K != 3 {
		t.Errorf("K = %d, want 3 (three replicas on distinct machines)", sol.K)
	}
	seen := map[int]bool{}
	for _, j := range sol.Assign {
		if seen[j] {
			t.Error("two replicas share a machine")
		}
		seen[j] = true
	}
}

func TestExplicitAntiAffinity(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.1, 1, n), flatWL("b", 0.1, 1, n),
		},
		Machines:     machines(3, 1, 16),
		AntiAffinity: [][2]int{{0, 1}},
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Fatalf("K = %d feasible=%v, want 2 (anti-affine pair)", sol.K, sol.Feasible)
	}
	if sol.Assign[0] == sol.Assign[1] {
		t.Error("anti-affine workloads co-located")
	}
}

func TestPinning(t *testing.T) {
	n := 12
	a := flatWL("a", 0.1, 1, n)
	a.PinTo = 2
	p := &Problem{
		Workloads: []Workload{a, flatWL("b", 0.1, 1, n)},
		Machines:  machines(4, 1, 16),
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatal("pinned problem should be feasible")
	}
	for u, ref := range sol.Units {
		if ref.Workload == 0 && ref.Replica == 0 && sol.Assign[u] != 2 {
			t.Errorf("pinned workload placed on machine %d, want 2", sol.Assign[u])
		}
	}
}

func TestInfeasibleBoundError(t *testing.T) {
	// Aggregate CPU exceeds everything available.
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.9, 1, n), flatWL("b", 0.9, 1, n), flatWL("c", 0.9, 1, n),
		},
		Machines: machines(2, 1, 16),
	}
	if _, err := Solve(context.Background(), p, DefaultSolveOptions()); err == nil {
		t.Error("over-committed problem should fail the lower-bound check")
	}
}

func TestFractionalLowerBound(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.8, 1, n), flatWL("b", 0.8, 1, n), flatWL("c", 0.8, 1, n),
		},
		Machines: machines(5, 1, 64),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	// Total CPU 2.4 → at least 3 machines.
	if got := ev.FractionalLowerBound(); got != 3 {
		t.Errorf("lower bound = %d, want 3", got)
	}
}

// TestFractionalLowerBoundHeterogeneous is the regression for the bound that
// divided by Machines[0]'s capacity alone: a fleet whose first machine is the
// small one got a "lower bound" above the optimum, so Solve either refused a
// feasible problem or never probed the machine counts below it. The bound
// reads the list as given (NewEvaluator's order); Solve orders the machines
// itself, so every list that holds the big machine solves on it alone, as
// "big first" does.
func TestFractionalLowerBoundHeterogeneous(t *testing.T) {
	n := 12
	wls := []Workload{flatWL("a", 0.9, 1, n), flatWL("b", 0.9, 1, n), flatWL("c", 0.9, 1, n), flatWL("d", 0.9, 1, n)}
	small := Machine{Name: "small", CPUCapacity: 1, RAMBytes: 64e9}
	big := Machine{Name: "big", CPUCapacity: 8, RAMBytes: 64e9}
	const bigFirstK = 1
	for _, tc := range []struct {
		name      string
		machines  []Machine
		bound     int
		wantError bool
	}{
		{"small then big", []Machine{small, big}, 2, false},
		{"spare machines behind", []Machine{small, big, small, small, small}, 2, false},
		{"big first", []Machine{big, small}, bigFirstK, false},
		// 1+1+8: the first two machines hold 2 of the 3.6.
		{"two small then big", []Machine{small, small, big}, 3, false},
		// A homogeneous tail keeps ⌈remaining/capacity⌉ past the last
		// machine: 3.6 over 1+1+1 needs a fourth.
		{"over-committed", []Machine{small, small, small}, 4, true},
	} {
		p := &Problem{Workloads: wls, Machines: tc.machines}
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.FractionalLowerBound(); got != tc.bound {
			t.Errorf("%s: lower bound = %d, want %d", tc.name, got, tc.bound)
		}
		sol, err := Solve(context.Background(), p, DefaultSolveOptions())
		if tc.wantError {
			if err == nil {
				t.Errorf("%s: over-committed fleet solved", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !sol.Feasible || sol.K != bigFirstK {
			t.Errorf("%s: K = %d feasible=%v, want big first's K = %d feasible", tc.name, sol.K, sol.Feasible, bigFirstK)
		}
	}

	// The disk tightening prices the even split against the largest budget
	// among the first n machines, so one small first disk no longer inflates
	// it (30 workloads: the disk model lifts the bound from 10 to 16).
	p := randomLoadStateProblem(rand.New(rand.NewSource(5)), 30, 12, true)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	equal := ev.FractionalLowerBound()
	p.Machines[0].DiskWriteBps /= 50
	if ev, err = NewEvaluator(p); err != nil {
		t.Fatal(err)
	}
	if got := ev.FractionalLowerBound(); got != equal || equal != 16 {
		t.Errorf("one small disk first: lower bound = %d, equal budgets gave %d, want 16 for both", got, equal)
	}
}

func TestHeadroomTightensCapacity(t *testing.T) {
	n := 12
	mk := func(headroom units.Frac) *Problem {
		ms := machines(2, 1, 16)
		for i := range ms {
			ms[i].Headroom = headroom
		}
		return &Problem{
			Workloads: []Workload{flatWL("a", 0.5, 1, n), flatWL("b", 0.48, 1, n)},
			Machines:  ms,
		}
	}
	sol, err := Solve(context.Background(), mk(0), DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.K != 1 {
		t.Errorf("no headroom: K = %d, want 1 (0.98 total)", sol.K)
	}
	sol, err = Solve(context.Background(), mk(0.05), DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.K != 2 {
		t.Errorf("5%% headroom: K = %d, want 2 (0.98 > 0.95)", sol.K)
	}
}

func TestSkipDirectStillSolves(t *testing.T) {
	n := 12
	var wls []Workload
	for i := 0; i < 10; i++ {
		wls = append(wls, flatWL(string(rune('a'+i)), 0.25, 2, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(6, 1, 16)}
	opt := DefaultSolveOptions()
	opt.SkipDirect = true
	sol, err := Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 3 {
		t.Errorf("greedy+hill-climb: K = %d feasible=%v, want 3 (2.5 CPU total)", sol.K, sol.Feasible)
	}
}

func TestObjectivePrefersFewerServers(t *testing.T) {
	// The paper's guarantee: any k−1-server solution scores below any
	// k-server solution (absent violations).
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.2, 1, n), flatWL("b", 0.2, 1, n),
			flatWL("c", 0.2, 1, n), flatWL("d", 0.2, 1, n),
		},
		Machines: machines(4, 1, 32),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	onOne, _ := ev.Eval([]int{0, 0, 0, 0}, 4)
	balanced2, _ := ev.Eval([]int{0, 0, 1, 1}, 4)
	spread4, _ := ev.Eval([]int{0, 1, 2, 3}, 4)
	if !(onOne < balanced2 && balanced2 < spread4) {
		t.Errorf("objective ordering violated: 1-server=%v 2-server=%v 4-server=%v",
			onOne, balanced2, spread4)
	}
}

func TestObjectivePrefersBalanceAtEqualK(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{
			flatWL("a", 0.3, 1, n), flatWL("b", 0.3, 1, n),
			flatWL("c", 0.3, 1, n), flatWL("d", 0.3, 1, n),
		},
		Machines: machines(2, 2, 32),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	balanced, _ := ev.Eval([]int{0, 0, 1, 1}, 2)
	skewed, _ := ev.Eval([]int{0, 0, 0, 1}, 2)
	if balanced >= skewed {
		t.Errorf("balance not rewarded: balanced=%v skewed=%v", balanced, skewed)
	}
}

func TestObjectivePenalizesViolation(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{flatWL("a", 0.8, 1, n), flatWL("b", 0.8, 1, n)},
		Machines:  machines(2, 1, 32),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	together, feas := ev.Eval([]int{0, 0}, 2)
	if feas {
		t.Error("1.6 CPU on one machine reported feasible")
	}
	apart, feas2 := ev.Eval([]int{0, 1}, 2)
	if !feas2 {
		t.Error("split assignment reported infeasible")
	}
	if together < apart+penaltyWeight/2 {
		t.Errorf("violation under-penalized: together=%v apart=%v", together, apart)
	}
}

func TestReportAndMachineWorkloads(t *testing.T) {
	n := 12
	p := &Problem{
		Workloads: []Workload{flatWL("a", 0.3, 1, n), flatWL("b", 0.4, 2, n)},
		Machines:  machines(2, 1, 16),
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	report := ev.Report([]int{0, 0}, 2)
	if !report[0].Used || report[1].Used {
		t.Error("usage flags wrong")
	}
	if math.Abs(report[0].CPUPeak-0.7) > 1e-9 {
		t.Errorf("CPU peak = %v, want 0.7", report[0].CPUPeak)
	}
	if math.Abs(report[0].RAMPeak-3e9) > 1 {
		t.Errorf("RAM peak = %v, want 3e9", report[0].RAMPeak)
	}
	sol := &Solution{Assign: []int{0, 0}, Units: ev.Units(), K: 2, Loads: report}
	mw := sol.MachineWorkloads()
	if len(mw[0]) != 2 || len(mw[1]) != 0 {
		t.Errorf("MachineWorkloads = %v", mw)
	}
}

func TestSolveDeterministic(t *testing.T) {
	n := 24
	var wls []Workload
	for i := 0; i < 8; i++ {
		wls = append(wls, sineWL(string(rune('a'+i)), 0.2, 0.1, float64(i), 1.5, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(5, 1, 16)}
	s1, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s1.K != s2.K || !floats.Same(s1.Objective, s2.Objective) {
		t.Error("solver should be deterministic")
	}
	for i := range s1.Assign {
		if s1.Assign[i] != s2.Assign[i] {
			t.Fatal("assignments differ between runs")
		}
	}
}

// TestPropertySolutionsVerifiable cross-checks the solver against an
// independent constraint verifier on randomized (but seeded) problems: any
// solution reported feasible must satisfy CPU and RAM peak constraints
// recomputed from scratch, and replicas must land on distinct machines.
func TestPropertySolutionsVerifiable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(8)
		T := 12
		var wls []Workload
		for i := 0; i < n; i++ {
			cpu := 0.05 + rng.Float64()*0.5
			ram := 0.5 + rng.Float64()*8
			w := flatWL(fmt.Sprintf("w%d", i), cpu, ram, T)
			if rng.Float64() < 0.25 {
				w.Replicas = 2
			}
			wls = append(wls, w)
		}
		p := &Problem{Workloads: wls, Machines: machines(2*n, 1, 32)}
		sol, err := Solve(context.Background(), p, DefaultSolveOptions())
		if err != nil {
			// Over-committed random instances are allowed to fail the
			// lower-bound check; nothing to verify.
			continue
		}
		if !sol.Feasible {
			continue
		}
		// Independent verification.
		cpuSum := make(map[int]float64)
		ramSum := make(map[int]float64)
		replicaSpots := make(map[int]map[int]bool)
		for u, j := range sol.Assign {
			ref := sol.Units[u]
			w := wls[ref.Workload]
			cpuSum[j] += w.CPU.Values[0]
			ramSum[j] += w.RAMBytes.Values[0]
			if replicaSpots[ref.Workload] == nil {
				replicaSpots[ref.Workload] = map[int]bool{}
			}
			if replicaSpots[ref.Workload][j] {
				t.Fatalf("trial %d: two replicas of workload %d on machine %d", trial, ref.Workload, j)
			}
			replicaSpots[ref.Workload][j] = true
		}
		for j, c := range cpuSum {
			if c > 1.0+1e-9 {
				t.Fatalf("trial %d: machine %d CPU %v > 1", trial, j, c)
			}
			if ramSum[j] > 32e9+1 {
				t.Fatalf("trial %d: machine %d RAM %v > 32GB", trial, j, ramSum[j])
			}
		}
	}
}
