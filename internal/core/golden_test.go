package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/model"
	"kairos/internal/polyfit"
)

// goldenRow pins one solve's plan: the machine count, the raw bits of the
// objective and an FNV-1a hash of the assignment.
type goldenRow struct {
	k       int
	objBits uint64
	assign  uint64
}

// golden was captured on the commit before the exact pricers were
// specialised (no-disk two-stream kernels, the unrolled disk polynomial,
// the Eval reuse table, the cached greedy packing). Every one of those cuts
// claims bit-identity, so this table must not be edited to make a pricing
// change pass: a row that moves means a plan the daemon serves moved.
var golden = map[string]goldenRow{
	"Internal-25-direct":   {3, 0x4012ba80a6f22b49, 0x9ebfdb3332730e65},
	"Wikia-35-direct":      {2, 0x4007482babb6860e, 0x8bb10d53b731d0c4},
	"Wikipedia-40-direct":  {5, 0x40214e635d668106, 0xafeb89dfdcd803e1},
	"SecondLife-97-direct": {11, 0x4031df7e3d90ddbb, 0x70a49412483154cb},
	"all-197-local":        {16, 0x403c1f052fe0f174, 0x160d5bdbe62304a3},
	"all-197-shards4":      {16, 0x403c7ac5e402fbef, 0xbdd7f19f7d195d88},
	"secondlife-97-disk":   {11, 0x403482529567b042, 0xc30031edee2e2e2f},
	"wikia-35-disk-direct": {2, 0x400a877558285f80, 0x4e4b1eb2cb2a3cc5},
	"all-197-warm":         {16, 0x403c250ede106a07, 0xfcd31a7194375e8a},
}

// goldenFevals pins the work each of those solves does, in Solution.Fevals.
// Unlike the plan columns it is re-captured by a change that makes the
// solver do less for the same plan (old → new per row goes in CHANGES.md); a
// row that moves unannounced means work crept back in. Last captured when
// Resolve stopped climbing the greedy and round-robin cold seeds beside the
// warm one (all-197-warm: 147 413 → 23 550, the same plan).
var goldenFevals = map[string]int{
	"Internal-25-direct":   6525,
	"Wikia-35-direct":      5403,
	"Wikipedia-40-direct":  28186,
	"SecondLife-97-direct": 85195,
	"all-197-local":        489261,
	"all-197-shards4":      39493,
	"secondlife-97-disk":   31499,
	"wikia-35-disk-direct": 6955,
	"all-197-warm":         23550,
}

// goldenDiskProfile is a degree-2 fit with every coefficient non-zero (so
// the quadratic terms are priced, not multiplied away) and a saturation
// envelope; both monotone over the fleet's operating box, so the coarse
// screen's disk bounds are live too.
func goldenDiskProfile() *model.DiskProfile {
	return &model.DiskProfile{
		Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.0002, 0.003, 1e-9, 2e-8, 1e-8}},
		Envelope:    polyfit.Poly1D{Coeffs: []float64{120000, -0.9, -1e-7}},
		HasEnvelope: true,
		WSMinMB:     100,
		WSMaxMB:     100000,
	}
}

func hashAssign(assign []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, j := range assign {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(j)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenSolves pins K, Objective and Assign of the solver's cold and
// warm paths on the paper's fleets, bit for bit, and the evaluations each
// spends getting there.
func TestGoldenSolves(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic, ~10× slower under the race detector; the sharded and parallel paths have their own race tests")
	}
	ctx := context.Background()
	direct := core.DefaultSolveOptions()
	local := core.DefaultSolveOptions()
	local.SkipDirect = true

	check := func(name string, sol *core.Solution, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sol.Feasible {
			t.Errorf("%s: infeasible", name)
		}
		got := goldenRow{sol.K, math.Float64bits(sol.Objective), hashAssign(sol.Assign)}
		want := golden[name]
		if runtime.GOARCH != "amd64" {
			// Other architectures may fuse multiply-adds; the plan must still
			// agree, the last bits of the objective need not.
			got.objBits, want.objBits = 0, 0
		}
		if got != want {
			t.Errorf("%s moved:\n got {%d, %#x, %#x}\nwant {%d, %#x, %#x}", name,
				got.k, got.objBits, got.assign, want.k, want.objBits, want.assign)
		}
		if sol.Fevals != goldenFevals[name] {
			t.Errorf("%s: Fevals = %d, want %d", name, sol.Fevals, goldenFevals[name])
		}
	}

	for _, d := range fleet.Datasets() {
		p := fleetCase(d)
		name := fmt.Sprintf("%s-%d-direct", d, len(p.Workloads))
		sol, err := core.Solve(ctx, p, direct)
		check(name, sol, err)
	}

	all := fleetProblem(fleet.All())
	cold, err := core.Solve(ctx, all, local)
	check("all-197-local", cold, err)

	sharded, err := core.SolveSharded(ctx, all, core.ShardOptions{Shards: 4, Options: local})
	check("all-197-shards4", sharded, err)

	disk := fleetCase(fleet.SecondLife)
	disk.Disk = goldenDiskProfile()
	sol, err := core.Solve(ctx, disk, local)
	check("secondlife-97-disk", sol, err)

	// The same model under DIRECT, so Eval prices the disk terms too.
	disk = fleetCase(fleet.Wikia)
	disk.Disk = goldenDiskProfile()
	sol, err = core.Solve(ctx, disk, direct)
	check("wikia-35-disk-direct", sol, err)

	// One warm re-solve: the cold ALL-197 plan as incumbent, every workload
	// drifted by up to ±5 %.
	warmOpt := core.DefaultResolveOptions()
	warmOpt.SkipDirect = true
	warm, err := core.Resolve(ctx, driftedCopy(all), core.IncumbentFromSolution(all, cold), warmOpt)
	check("all-197-warm", warm, err)
}

// driftedCopy returns p with every workload's CPU and RAM scaled by its own
// seeded factor in 1 ± 5 % — the golden warm row's and the warm benchmark's
// drifted fleet.
func driftedCopy(p *core.Problem) *core.Problem { return driftedBy(p, 0.05, 42) }

// driftedBy scales every workload's CPU and RAM series by its own factor in
// [1 − frac, 1 + frac], drawn from seed.
func driftedBy(p *core.Problem, frac float64, seed int64) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	drifted := *p
	drifted.Workloads = append([]core.Workload(nil), p.Workloads...)
	for i := range drifted.Workloads {
		w := &drifted.Workloads[i]
		f := 1 + (rng.Float64()*2-1)*frac
		w.CPU = w.CPU.Scale(f).Clamp(0, 1)
		w.RAMBytes = w.RAMBytes.Scale(f)
	}
	return &drifted
}
