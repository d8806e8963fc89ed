package core_test

import (
	"context"
	"math"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// TestSolutionLoadsAreReport: every producer of a Solution — Solve,
// SolveSharded's merge, Resolve and SolutionFromIncumbent — carries the
// per-machine loads a fresh evaluator of the problem reports for its
// assignment, bit for bit, so a plan needs no evaluator of its own to
// show them. The disk model is on, so DiskPeak is priced too.
func TestSolutionLoadsAreReport(t *testing.T) {
	ctx := context.Background()
	p := fleetCase(fleet.Wikia)
	p.Disk = goldenDiskProfile()
	local := core.DefaultSolveOptions()
	local.SkipDirect = true

	cold, err := core.Solve(ctx, p, local)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.SolveSharded(ctx, p, core.ShardOptions{Shards: 2, Options: local})
	if err != nil {
		t.Fatal(err)
	}
	drifted := driftedCopy(p)
	warmOpt := core.DefaultResolveOptions()
	warmOpt.SkipDirect = true
	warm, err := core.Resolve(ctx, drifted, core.IncumbentFromSolution(p, cold), warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := core.SolutionFromIncumbent(drifted, core.IncumbentFromSolution(drifted, warm))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		p    *core.Problem
		sol  *core.Solution
	}{{"Solve", p, cold}, {"SolveSharded", p, sharded}, {"Resolve", drifted, warm}, {"SolutionFromIncumbent", drifted, adopted}} {
		ev, err := core.NewEvaluator(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		want := ev.Report(tc.sol.Assign, tc.sol.K)
		if len(tc.sol.Loads) != len(want) {
			t.Errorf("%s: %d machine loads for K = %d", tc.name, len(tc.sol.Loads), tc.sol.K)
			continue
		}
		for j, got := range tc.sol.Loads {
			if !sameLoad(got, want[j]) {
				t.Errorf("%s: machine %d load %+v, a fresh evaluator reports %+v", tc.name, j, got, want[j])
			}
		}
	}
}

// sameLoad reports whether two machine loads agree bit for bit.
func sameLoad(a, b core.ServerLoad) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Machine != b.Machine || a.Used != b.Used || len(a.CPU) != len(b.CPU) ||
		!same(a.RAMPeak, b.RAMPeak) || !same(a.CPUPeak, b.CPUPeak) || !same(a.DiskPeak, b.DiskPeak) ||
		!same(a.Violation, b.Violation) || !same(a.NormLoad, b.NormLoad) {
		return false
	}
	for t := range a.CPU {
		if !same(a.CPU[t], b.CPU[t]) {
			return false
		}
	}
	return true
}
