// Benchmarks for the incremental load-state engine: the hill-climb hot
// path of the Section 6 solver. A full local-search sweep prices every
// unit against every other machine; the scratch path re-aggregates each
// candidate machine's members over all T time steps (with four fresh
// buffers per candidate), while the LoadState path prices each move in
// O(T) from maintained running sums with zero allocations. The reported
// speedup metric on the 197-server ALL fleet is the acceptance criterion
// tracked per PR (target ≥5×); run with -benchmem (make bench-hot) to see
// the allocation difference.
package kairos

import (
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// benchSink defeats dead-code elimination of the priced contributions.
var benchSink float64

// sweepScratch prices one full hill-climb sweep the pre-LoadState way:
// every candidate machine re-summed from scratch via the canonical pricer.
func sweepScratch(ev *core.Evaluator, assign []int, members [][]int, K int) float64 {
	var acc float64
	for u := range assign {
		from := assign[u]
		without := make([]int, 0, len(members[from]))
		for _, x := range members[from] {
			if x != u {
				without = append(without, x)
			}
		}
		cFrom := ev.ServerContrib(from, without)
		for j := 0; j < K; j++ {
			if j == from {
				continue
			}
			with := append(append([]int(nil), members[j]...), u)
			acc += ev.ServerContrib(j, with) - cFrom
		}
	}
	return acc
}

// sweepLoadState prices the same sweep against the incremental engine.
func sweepLoadState(ls *core.LoadState, K int) float64 {
	var acc float64
	for u := 0; u < ls.NumUnits(); u++ {
		from := ls.Assign(u)
		cFrom := ls.PriceRemove(u)
		for j := 0; j < K; j++ {
			if j == from {
				continue
			}
			acc += ls.PriceAdd(u, j) - cFrom
		}
	}
	return acc
}

// BenchmarkLoadStateSweep measures one full hill-climb pricing sweep on
// the 197-server ALL dataset (197 units × 288 time steps, K at the
// fractional lower bound), scratch serverEval versus incremental
// LoadState.
func BenchmarkLoadStateSweep(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	nU := ev.NumUnits()
	K := ev.FractionalLowerBound()
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	members := make([][]int, K)
	for u, j := range assign {
		members[j] = append(members[j], u)
	}

	var baseline float64
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += sweepScratch(ev, assign, members, K)
		}
		baseline = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("loadstate", func(b *testing.B) {
		b.ReportAllocs()
		ls := core.NewLoadState(ev, assign, K)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink += sweepLoadState(ls, K)
		}
		if perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N); baseline > 0 && perOp > 0 {
			b.ReportMetric(baseline/perOp, "speedup")
		}
	})
}

// sweepMovesCoarse prices one best-improvement move sweep the way the
// solver's bestMove does — tracking the best delta per unit — optionally
// screening every candidate against the peak-step sample bound first. It never
// mutates the state, so benchmark iterations price identical work. Returns
// an accumulator (defeats dead-code elimination) and the number of exact
// O(T) pricings performed.
func sweepMovesCoarse(ls *core.LoadState, K int, screen bool) (acc float64, exact int) {
	for u := 0; u < ls.NumUnits(); u++ {
		from := ls.Assign(u)
		cFrom := ls.PriceRemove(u)
		bestDelta := -1e-9
		for j := 0; j < K; j++ {
			if j == from {
				continue
			}
			if screen {
				if lo := ls.ScreenAdd(u, j); (cFrom+lo)-(ls.Contrib(from)+ls.Contrib(j)) >= bestDelta {
					continue
				}
			}
			exact++
			delta := (cFrom + ls.PriceAdd(u, j)) - (ls.Contrib(from) + ls.Contrib(j))
			if delta < bestDelta {
				bestDelta = delta
			}
			acc += delta
		}
	}
	return acc, exact
}

// sweepSwapsCoarse prices one 2-exchange swap sweep like the solver's
// swap sweep (both sides' screens, best delta per unit; the solver also
// stages each side) without mutating the state.
func sweepSwapsCoarse(ls *core.LoadState, screen bool) (acc float64, exact int) {
	n := ls.NumUnits()
	for u := 0; u < n; u++ {
		a := ls.Assign(u)
		bestDelta := -1e-9
		for v := u + 1; v < n; v++ {
			b := ls.Assign(v)
			if b == a {
				continue
			}
			if screen {
				loU, loV := ls.ScreenSwap(u, v)
				if (loU+1)-(ls.Contrib(a)+ls.Contrib(b)) >= bestDelta {
					continue
				}
				if (loU+loV)-(ls.Contrib(a)+ls.Contrib(b)) >= bestDelta {
					continue
				}
			}
			exact++
			nu, nv := ls.PriceSwap(u, v)
			delta := (nu + nv) - (ls.Contrib(a) + ls.Contrib(b))
			if delta < bestDelta {
				bestDelta = delta
			}
			acc += delta
		}
	}
	return acc, exact
}

// BenchmarkCoarseScreenedSweep measures one full local-search pricing pass
// — a best-improvement move sweep plus a 2-exchange swap sweep — on the
// 197-server ALL fleet, with the peak-step sample screen off versus on. The
// screened case must price the identical best-delta trajectory (the screen
// only removes candidates the exact pricing would reject), stay at 0
// allocs/op, and the reported sweep-speedup is the per-PR acceptance
// metric (target ≥3×); fevals counts exact O(T) pricings per sweep pass.
func BenchmarkCoarseScreenedSweep(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	nU := ev.NumUnits()
	K := ev.FractionalLowerBound()
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	ls := core.NewLoadState(ev, assign, K)

	var baseline float64
	b.Run("unscreened", func(b *testing.B) {
		b.ReportAllocs()
		var exact int
		for i := 0; i < b.N; i++ {
			acc1, n1 := sweepMovesCoarse(ls, K, false)
			acc2, n2 := sweepSwapsCoarse(ls, false)
			benchSink += acc1 + acc2
			exact = n1 + n2
		}
		baseline = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(exact), "fevals")
	})
	b.Run("screened", func(b *testing.B) {
		b.ReportAllocs()
		var exact int
		for i := 0; i < b.N; i++ {
			acc1, n1 := sweepMovesCoarse(ls, K, true)
			acc2, n2 := sweepSwapsCoarse(ls, true)
			benchSink += acc1 + acc2
			exact = n1 + n2
		}
		b.ReportMetric(float64(exact), "fevals")
		if perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N); baseline > 0 && perOp > 0 {
			b.ReportMetric(baseline/perOp, "sweep-speedup")
		}
	})
}

// BenchmarkCoarseBoundPricing isolates a single screen evaluation over the
// whole sample — the bound applied to the candidates of a sweep — tracking
// its cost and the 0 allocs/op requirement directly.
func BenchmarkCoarseBoundPricing(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	nU := ev.NumUnits()
	K := ev.FractionalLowerBound()
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	ls := core.NewLoadState(ev, assign, K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % nU
		j := (ls.Assign(u) + 1 + i%(K-1)) % K
		benchSink += ls.ScreenAdd(u, j)
	}
}

// BenchmarkLoadStateMovePricing isolates a single candidate-move pricing —
// the innermost operation of every local-search sweep — so per-move cost
// and allocations are tracked directly (0 allocs/op is asserted in
// internal/core's tests as well).
func BenchmarkLoadStateMovePricing(b *testing.B) {
	p := fleetProblem(fleet.All(), nil)
	ev, err := core.NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	nU := ev.NumUnits()
	K := ev.FractionalLowerBound()
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	ls := core.NewLoadState(ev, assign, K)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % nU
		j := (ls.Assign(u) + 1 + i%(K-1)) % K
		benchSink += ls.PriceAdd(u, j) - ls.PriceRemove(u)
	}
}
