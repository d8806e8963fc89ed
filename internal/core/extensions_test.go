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
)

func TestLatencySLAMaxUtilization(t *testing.T) {
	cases := []struct {
		slowdown float64
		want     float64
	}{
		{2, 0.5},  // 2x slowdown tolerated → stay below 50%
		{4, 0.75}, // 4x → 75%
		{10, 0.9}, // 10x → 90%
		{1, 0},    // no slowdown tolerated → unusable cap
		{0.5, 0},  // nonsense input → 0
	}
	for _, tc := range cases {
		got := LatencySLA{MaxSlowdown: tc.slowdown}.MaxUtilization()
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("MaxUtilization(%v) = %v, want %v", tc.slowdown, got, tc.want)
		}
	}
}

func TestSLAValidation(t *testing.T) {
	n := 12
	for _, slowdown := range []float64{1, 0.5, math.NaN()} {
		w := flatWL("a", 0.2, 1, n)
		w.SLA = &LatencySLA{MaxSlowdown: slowdown}
		p := &Problem{Workloads: []Workload{w}, Machines: machines(2, 1, 16)}
		if err := p.Validate(); err == nil {
			t.Errorf("SLA slowdown %v accepted", slowdown)
		}
	}
}

func TestSLATightensPacking(t *testing.T) {
	// Without SLAs, two 0.45-CPU workloads share one machine (0.90 < 1).
	// With a 2x-slowdown SLA (≤50% utilization), they must split.
	n := 12
	mk := func(withSLA bool) *Problem {
		a, b := flatWL("a", 0.45, 1, n), flatWL("b", 0.45, 1, n)
		if withSLA {
			a.SLA = &LatencySLA{MaxSlowdown: 2}
		}
		return &Problem{Workloads: []Workload{a, b}, Machines: machines(3, 1, 64)}
	}
	sol, err := Solve(context.Background(), mk(false), DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.K != 1 {
		t.Errorf("without SLA: K = %d, want 1", sol.K)
	}
	sol, err = Solve(context.Background(), mk(true), DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Errorf("with 2x SLA: K = %d feasible=%v, want 2", sol.K, sol.Feasible)
	}
}

func TestSLAOnlyConstrainsItsMachine(t *testing.T) {
	// The SLA applies to the machine hosting the SLA'd workload; other
	// machines may still run hot.
	n := 12
	strict := flatWL("strict", 0.1, 1, n)
	strict.SLA = &LatencySLA{MaxSlowdown: 1.25} // ≤20% utilization
	hot := flatWL("hot", 0.8, 1, n)
	p := &Problem{Workloads: []Workload{strict, hot}, Machines: machines(3, 1, 64)}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Fatalf("K = %d feasible=%v, want 2 separate machines", sol.K, sol.Feasible)
	}
	if sol.Assign[0] == sol.Assign[1] {
		t.Error("SLA'd workload co-located with the hot one")
	}
}

func TestReplicaLoadScaleValidation(t *testing.T) {
	n := 12
	for _, scale := range []float64{0, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := flatWL("a", 0.2, 1, n)
		w.Replicas = 2
		w.ReplicaLoadScale = []float64{1, scale}
		p := &Problem{Workloads: []Workload{w}, Machines: machines(2, 1, 16)}
		if err := p.Validate(); err == nil {
			t.Errorf("replica scale %v accepted", scale)
		}
	}
}

func TestReplicaLoadScaleApplied(t *testing.T) {
	// A replica at 10% load barely adds anything: primary 0.6 + another
	// workload 0.35 exceed one machine, but the scaled replica (0.06) plus
	// 0.35 fit together.
	n := 12
	db := flatWL("db", 0.6, 1, n)
	db.Replicas = 2
	db.ReplicaLoadScale = []float64{1, 0.1}
	other := flatWL("other", 0.35, 1, n)
	p := &Problem{Workloads: []Workload{db, other}, Machines: machines(3, 1, 64)}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 {
		t.Fatalf("K = %d feasible=%v, want 2 (scaled replica co-locates)", sol.K, sol.Feasible)
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	report := ev.Report(sol.Assign, sol.K)
	// One machine holds the primary (0.6); the other holds replica+other
	// (0.06 + 0.35 = 0.41).
	peaks := []float64{report[0].CPUPeak, report[1].CPUPeak}
	hi, lo := math.Max(peaks[0], peaks[1]), math.Min(peaks[0], peaks[1])
	if math.Abs(hi-0.6) > 1e-9 || math.Abs(lo-0.41) > 1e-9 {
		t.Errorf("peaks = %v, want {0.6, 0.41}", peaks)
	}
}

// TestScaledReplicasBoundTheSearch: four workloads at 0.4 CPU, each with a
// second replica at 5 % of its load, fit on two of three 1.0-CPU machines
// (each machine two primaries and the other two's replicas, 0.84). The
// fractional bound sums the replicas' scaled demand, 1.68, so it reads 2,
// and a cold Solve searches from there instead of refusing the fleet.
func TestScaledReplicasBoundTheSearch(t *testing.T) {
	n := 12
	var wls []Workload
	for _, name := range []string{"a", "b", "c", "d"} {
		w := flatWL(name, 0.4, 1, n)
		w.Replicas = 2
		w.ReplicaLoadScale = []float64{1, 0.05}
		wls = append(wls, w)
	}
	p := &Problem{Workloads: wls, Machines: machines(3, 1, 64)}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	if lb := ev.FractionalLowerBound(); lb != 2 {
		t.Errorf("fractional lower bound = %d, want 2", lb)
	}
	sol, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || sol.K != 2 || sol.LowerBound != 2 {
		t.Fatalf("K = %d feasible=%v bound %d, want a feasible K = 2 from bound 2", sol.K, sol.Feasible, sol.LowerBound)
	}
}

// TestFractionalBoundBelowFeasibleK: on seeded random fleets whose replicas
// carry load scales in (0, 1] — the primary's too — the fractional bound
// never exceeds the K of a feasible plan, whether a cold Solve found it
// or a warm Resolve did, from the cold plan or from every unit spread over
// every machine, which its reduction pass then empties.
func TestFractionalBoundBelowFeasibleK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const T = 24
	start, step := time.Unix(0, 0), 5*time.Minute
	ctx := context.Background()
	opt := DefaultSolveOptions()
	opt.SkipDirect = true
	free := opt // MigrationWeight 0: Resolve may reduce K freely
	for trial := 0; trial < 40; trial++ {
		nW := 3 + rng.Intn(8)
		wls := make([]Workload, nW)
		for i := range wls {
			base, amp, phase := 0.1+0.4*rng.Float64(), 0.1*rng.Float64(), 2*math.Pi*rng.Float64()
			wls[i] = Workload{
				Name: fmt.Sprintf("w%d", i),
				CPU: series.FromFunc(start, step, T, func(_ time.Time, t int) float64 {
					return base + amp*math.Sin(2*math.Pi*float64(t)/T+phase)
				}),
				RAMBytes:   series.Constant(start, step, T, (1+6*rng.Float64())*1e9),
				WSBytes:    series.Constant(start, step, T, (0.2+rng.Float64())*1e9),
				UpdateRate: series.Constant(start, step, T, 200+1000*rng.Float64()),
				Replicas:   1 + rng.Intn(3),
				PinTo:      -1,
			}
			for r := 0; r < wls[i].Replicas; r++ {
				wls[i].ReplicaLoadScale = append(wls[i].ReplicaLoadScale, 1-rng.Float64())
			}
		}
		ms := machines(nW+2, 1, 16)
		for j := range ms {
			ms[j].DiskWriteBps = 40e6
		}
		p := &Problem{Workloads: wls, Machines: ms}
		if trial%2 == 1 {
			p.Disk = syntheticDiskProfile()
		}
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		lb := ev.FractionalLowerBound()
		cold, err := Solve(ctx, p, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cold.LowerBound != lb {
			t.Errorf("trial %d: Solution.LowerBound = %d, the evaluator's bound %d", trial, cold.LowerBound, lb)
		}
		spread := &Solution{Assign: make([]int, ev.NumUnits()), Units: ev.Units(), K: len(ms)}
		for u := range spread.Assign {
			spread.Assign[u] = u % len(ms)
		}
		plans := []*Solution{cold}
		for _, from := range []*Solution{cold, spread} {
			warm, err := Resolve(ctx, p, IncumbentFromSolution(p, from), free)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			plans = append(plans, warm)
		}
		for i, sol := range plans {
			if sol.Feasible && lb > sol.K {
				t.Errorf("trial %d plan %d: fractional bound %d exceeds the feasible K = %d", trial, i, lb, sol.K)
			}
		}
	}
}

func TestSolvePartitionedMatchesWholeOnSeparableInput(t *testing.T) {
	// Groups of independent heavy workloads: partitioned solving finds the
	// same total K as whole-problem solving.
	n := 12
	var wls []Workload
	for i := 0; i < 12; i++ {
		wls = append(wls, flatWL(string(rune('a'+i)), 0.45, 1, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(12, 1, 64)}
	whole, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	part, err := SolvePartitioned(context.Background(), p, Grouping{GroupSize: 4, Options: DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Feasible {
		t.Fatal("partitioned solve infeasible")
	}
	if part.K != whole.K {
		t.Errorf("partitioned K = %d, whole K = %d (should match on separable input)", part.K, whole.K)
	}
	if len(part.Groups) != 3 {
		t.Errorf("groups = %d, want 3", len(part.Groups))
	}
	// Group bookkeeping covers every workload exactly once.
	seen := map[int]bool{}
	for _, idx := range part.GroupWorkloads {
		for _, w := range idx {
			if seen[w] {
				t.Fatalf("workload %d in two groups", w)
			}
			seen[w] = true
		}
	}
	if len(seen) != 12 {
		t.Errorf("covered %d workloads, want 12", len(seen))
	}
	if !floats.Same(part.ConsolidationRatio(12), 12/float64(part.K)) {
		t.Error("ratio helper wrong")
	}
}

func TestSolvePartitionedCanLoseOpportunities(t *testing.T) {
	// Anti-phase pairs split across groups cannot be co-located, so the
	// partitioned solution may use more machines — the documented tradeoff.
	n := 48
	var wls []Workload
	for i := 0; i < 4; i++ {
		phase := float64(i%2) * math.Pi
		wls = append(wls, sineWL(string(rune('a'+i)), 0.5, 0.3, phase, 1, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(6, 1.05, 64)}
	whole, err := Solve(context.Background(), p, DefaultSolveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if whole.K != 2 {
		t.Fatalf("whole solve K = %d, want 2 (anti-phase pairs)", whole.K)
	}
	// Group size 2 with order (a,b),(c,d) keeps pairs together — still 2.
	// Deliberately group (a,c),(b,d) by reordering: same-phase pairs.
	reordered := []Workload{wls[0], wls[2], wls[1], wls[3]}
	p2 := &Problem{Workloads: reordered, Machines: machines(6, 1.05, 64)}
	part, err := SolvePartitioned(context.Background(), p2, Grouping{GroupSize: 2, Options: DefaultSolveOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if part.K <= whole.K {
		t.Errorf("partitioned K = %d, expected > %d (lost cross-group opportunity)", part.K, whole.K)
	}
}

func TestSolvePartitionedValidation(t *testing.T) {
	n := 12
	p := &Problem{Workloads: []Workload{flatWL("a", 0.2, 1, n)}, Machines: machines(2, 1, 16)}
	if _, err := SolvePartitioned(context.Background(), p, Grouping{GroupSize: 0}); err == nil {
		t.Error("zero group size accepted")
	}
	pinned := flatWL("p", 0.2, 1, n)
	pinned.PinTo = 1
	p2 := &Problem{Workloads: []Workload{pinned}, Machines: machines(2, 1, 16)}
	if _, err := SolvePartitioned(context.Background(), p2, Grouping{GroupSize: 1}); err == nil {
		t.Error("pinned workload accepted")
	}
	p3 := &Problem{
		Workloads:    []Workload{flatWL("a", 0.2, 1, n), flatWL("b", 0.2, 1, n)},
		Machines:     machines(2, 1, 16),
		AntiAffinity: [][2]int{{0, 1}},
	}
	if _, err := SolvePartitioned(context.Background(), p3, Grouping{GroupSize: 1}); err == nil {
		t.Error("anti-affinity accepted")
	}
}

func TestSolvePartitionedRunsOutOfMachines(t *testing.T) {
	n := 12
	var wls []Workload
	for i := 0; i < 4; i++ {
		wls = append(wls, flatWL(string(rune('a'+i)), 0.9, 1, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(2, 1, 16)}
	if _, err := SolvePartitioned(context.Background(), p, Grouping{GroupSize: 1, Options: DefaultSolveOptions()}); err == nil {
		t.Error("expected machine exhaustion error")
	}
}

func TestSolvePartitionedScalesLinearly(t *testing.T) {
	// Time per group is roughly constant, so doubling workloads roughly
	// doubles (not squares) the work. Just verify it completes fast on an
	// input size where whole-problem DIRECT would be slow.
	n := 24
	var wls []Workload
	for i := 0; i < 60; i++ {
		wls = append(wls, sineWL(string(rune('a'+i%26))+string(rune('0'+i/26)), 0.15, 0.1, float64(i), 1.5, n))
	}
	p := &Problem{Workloads: wls, Machines: machines(60, 1, 64)}
	opts := DefaultSolveOptions()
	opts.DirectFevals = 200
	start := time.Now()
	part, err := SolvePartitioned(context.Background(), p, Grouping{GroupSize: 10, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Feasible {
		t.Error("large partitioned solve infeasible")
	}
	if time.Since(start) > 30*time.Second {
		t.Errorf("partitioned solve too slow: %v", time.Since(start))
	}
	_ = series.Series{}
}
