package core_test

import (
	"math/rand"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// The benchmarks below time the pieces of a cold solve that exact pricing
// is made of, on the SecondLife-97 fleet at its solved machine count, so
// the per-phase rows of BENCH_sweeps.json (make bench-json) show which of
// them a change moved.

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

// BenchmarkEvalDirectWalk prices 4000 assignments that each differ from
// the one before in a single unit — the way DIRECT samples reach Eval —
// so it shows what the reuse table saves over re-pricing all K machines.
func BenchmarkEvalDirectWalk(b *testing.B) {
	const samples = 4000
	ev, assign := secondLife(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		for s := 0; s < samples; s++ {
			assign[rng.Intn(len(assign))] = rng.Intn(benchK)
			obj, _ := ev.Eval(assign, benchK)
			benchSink += obj
		}
	}
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
