// Benchmarks for the parallel consolidation engine: speculative K probing
// and the sharded fleet solver, both on the helpers the CPU budget
// (internal/cpu) has free — GOMAXPROCS − 1 of them, so -cpu 1,2,4 sweeps
// them. Unlike the figure benchmarks, these measure the solver itself, so
// they skip the disk-profile sweep and run directly against the generated
// fleets.
package kairos

import (
	"context"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// BenchmarkSpeculativeKProbing measures the full Solve pipeline — bounded
// binary search, with the next probes speculated on free helper slots, plus
// DIRECT — on one dataset. Run it with -cpu 1,2,4: the plans are identical
// at every core count; only the wall clock moves.
func BenchmarkSpeculativeKProbing(b *testing.B) {
	p := fleetProblem(fleet.Generate(fleet.Wikipedia), nil)
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(context.Background(), p, core.DefaultSolveOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("infeasible plan")
		}
	}
}

// BenchmarkShardedFleetSolve compares the single global solve against the
// sharded engine on the 197-server ALL dataset — the fleet-scale path. The
// reported k metric shows how much consolidation quality the cross-shard
// merge pass preserves.
func BenchmarkShardedFleetSolve(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	cases := []struct {
		name   string
		shards int
	}{
		{"unsharded", 1},
		{"shards=4", 4},
		{"shards=8", 8},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var k int
			for i := 0; i < b.N; i++ {
				opt := core.ShardOptions{Shards: tc.shards, Options: core.DefaultSolveOptions()}
				sol, err := core.SolveSharded(context.Background(), p, opt)
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Feasible {
					b.Fatal("infeasible plan")
				}
				k = sol.K
			}
			b.ReportMetric(float64(k), "machines")
		})
	}
}
