package core

import (
	"math/rand"
	"slices"
	"testing"

	"kairos/internal/floats"
)

// WarmSweepShape is where the first sweeps of Resolve's first climb
// accept, beside where a scan-ahead's tail would start in them.
type WarmSweepShape struct {
	// Units is the climb's unit count.
	Units int
	// Move and Swap are the first accepted move of the first move sweep
	// and the first accepted swap of the first swap sweep (-1: none);
	// MoveTail and SwapTail are where those sweeps hand their tails over.
	Move, MoveTail, Swap, SwapTail int
}

// WarmSweeps climbs p from Resolve's warm seed of inc, on one goroutine,
// up to its first swap sweep, and reports where its first sweeps accept.
// A first accepted move before a tail's start is what drops a scan-ahead's
// work and starts another. Exported for the fleet tests in core_test,
// which package core cannot import.
func WarmSweeps(t *testing.T, p *Problem, inc *Incumbent, opt SolveOptions) WarmSweepShape {
	t.Helper()
	ev, o, err := newOrdered(p)
	if err != nil {
		t.Fatal(err)
	}
	K := ev.clampIncumbentK(ev.p, inc.K)
	seed, home := ev.warmSeed(ev.p, o.in(inc), K)
	mig := ev.newMigration(home, opt)
	ls := NewLoadState(ev, seed, K)
	memo := newScanMemo(ls, mig)
	n := ls.NumUnits()
	shape := WarmSweepShape{Units: n, Move: -1, Swap: -1, MoveTail: moveSweep.tail(0, n), SwapTail: swapSweep.tail(0, n)}
	// sweep is sweep's loop on one goroutine, returning the first unit
	// that accepted a move.
	sweep := func(k *sweepKind) int {
		first := -1
		for u := 0; u < n; u++ {
			if to := k.scan(ev, ls, mig, memo, u); to >= 0 {
				k.apply(ls, mig, u, to)
				if first < 0 {
					first = u
				}
			}
		}
		return first
	}
	for round := 0; round < 100; round++ {
		moved := sweep(&moveSweep)
		if shape.Move < 0 {
			shape.Move = moved
		}
		if moved < 0 {
			shape.Swap = sweep(&swapSweep)
			break
		}
	}
	return shape
}

// TestSweepTails: a move sweep's tail is the second half of the units
// left, a swap sweep's the last units that hold half the candidate pairs
// left, and each leaves the sweep at least one unit of its own.
func TestSweepTails(t *testing.T) {
	pairs := func(from, to, n int) (p int) {
		for u := from; u < to; u++ {
			p += n - 1 - u
		}
		return p
	}
	for _, tc := range []struct{ from, n int }{{0, 2}, {0, 3}, {0, 197}, {16, 197}, {195, 197}, {0, 1000}} {
		if got, want := moveSweep.tail(tc.from, tc.n), tc.from+(tc.n-tc.from)/2; got != want {
			t.Errorf("move tail of [%d,%d) = %d, want %d", tc.from, tc.n, got, want)
		}
		s := swapSweep.tail(tc.from, tc.n)
		if s <= tc.from || s >= tc.n {
			t.Errorf("swap tail of [%d,%d) = %d, outside (from, n)", tc.from, tc.n, s)
			continue
		}
		half := pairs(tc.from, tc.n, tc.n) / 2
		if tail := pairs(s, tc.n, tc.n); s > tc.from+1 && (tail < half || s < tc.n-1 && pairs(s+1, tc.n, tc.n) >= half) {
			t.Errorf("swap tail of [%d,%d) = %d holds %d pairs, not the fewest that reach half the range's %d", tc.from, tc.n, s, tail, 2*half)
		}
	}
}

// TestCopyIntoPricesAsTheOriginal: a LoadState copy, fresh or into the
// buffers of an older copy, prices every move and swap as the original
// does, bit for bit, and moving the copy leaves the original as it was.
func TestCopyIntoPricesAsTheOriginal(t *testing.T) {
	p := flatProblem(rand.New(rand.NewSource(56)), 20, 48, true, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	K := 5
	assign := make([]int, ev.NumUnits())
	for u := range assign {
		assign[u] = u % K
	}
	ls := NewLoadState(ev, assign, K)
	clone := ev.Clone()
	var cp *LoadState
	for round := 0; round < 3; round++ {
		cp = ls.copyInto(cp, clone)
		if cp.clock != ls.clock || cp.ev != clone {
			t.Fatalf("round %d: copy at clock %d, evaluator %p; want %d, %p", round, cp.clock, cp.ev, ls.clock, clone)
		}
		for u := 0; u < ls.NumUnits(); u++ {
			for j := 0; j < K; j++ {
				if a, b := ls.PriceAdd(u, j), cp.PriceAdd(u, j); !floats.Same(a, b) {
					t.Fatalf("round %d: PriceAdd(%d, %d) = %v on the copy, %v on the original", round, u, j, b, a)
				}
			}
			if v := (u + 3) % ls.NumUnits(); ls.Assign(u) != ls.Assign(v) {
				a1, a2 := ls.PriceSwap(u, v)
				b1, b2 := cp.PriceSwap(u, v)
				if !floats.Same(a1, b1) || !floats.Same(a2, b2) {
					t.Fatalf("round %d: PriceSwap(%d, %d) differs on the copy", round, u, v)
				}
			}
		}
		before := ls.Assignment()
		cp.Move(round, (cp.Assign(round)+1)%K)
		if got := ls.Assignment(); !slices.Equal(got, before) {
			t.Fatalf("round %d: moving the copy moved the original", round)
		}
		ls.Move(round+5, (ls.Assign(round+5)+1)%K)
	}
}
