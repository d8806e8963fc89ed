package core

import (
	"context"
	"reflect"
	"testing"
)

// CapWalk is what WalkCapStage saw: the move and swap candidates it checked
// and those the capacity stage pruned.
type CapWalk struct{ Considered, CapPruned int }

// WalkCapStage climbs p at K from the seeds a solve climbs — for a cold
// solve (inc nil) solveK's greedy and round-robin seeds, for a warm one
// Resolve's warm seed and both cold seeds under opt's migration pricing —
// the way climb does: move sweeps, a swap sweep when moves stall. It prices
// every candidate exactly and checks each one the capacity stage prunes:
// the staged screen's first stage prunes it too (for a move, under either
// removal price a scan can hold), and its exact delta does not beat the
// best so far. Every scan must pick what the exact scan picks, and every
// walk must end where hillClimbMig does from the same seed. Exported for
// the fleet tests in core_test, which package core cannot import.
func WalkCapStage(t *testing.T, p *Problem, inc *Incumbent, K int, opt SolveOptions) CapWalk {
	t.Helper()
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	type seed struct {
		name  string
		start []int
	}
	var seeds []seed
	var home []int
	if inc != nil {
		K = ev.clampIncumbentK(p, inc.K)
		var warm []int
		warm, home = ev.warmSeed(p, inc, K)
		seeds = append(seeds, seed{"warm", warm})
	}
	seeds = append(seeds, seed{"greedy", ev.coldSeed(0, K)}, seed{"round-robin", ev.coldSeed(1, K)})
	newMig := func(start []int) *migration {
		if home == nil {
			return nil
		}
		m := ev.newMigration(home, opt)
		m.syncAway(start)
		return m
	}
	var w CapWalk
	for _, sd := range seeds {
		start := sd.start
		if start == nil {
			continue // no greedy packing fits K
		}
		ls, mig := NewLoadState(ev, start, K), newMig(start)
		for rounds := 0; rounds < 100; rounds++ {
			if !ev.walkMoves(t, ls, mig, &w) && !ev.walkSwaps(t, ls, mig, &w) {
				break
			}
		}
		if want := ev.hillClimbMig(context.Background(), start, K, 100, newMig(start)); !reflect.DeepEqual(ls.Assignment(), want.assign) {
			t.Fatalf("%s seed: the walk ended away from the climb's plan", sd.name)
		}
	}
	return w
}

// walkMoves is one move sweep of WalkCapStage.
func (ev *Evaluator) walkMoves(t *testing.T, ls *LoadState, mig *migration, w *CapWalk) bool {
	t.Helper()
	improved := false
	for u := 0; u < ls.NumUnits(); u++ {
		if ev.pin[u] >= 0 {
			continue
		}
		from := ls.Assign(u)
		caps := ls.capSides(u)
		rmBound, rmExact := ls.boundRemove(u), ls.PriceRemove(u)
		bestJ, bestDelta := from, -1e-9
		for j := 0; j < ls.K(); j++ {
			if j == from || !mig.allows(mig.awayDelta(u, from, j)) {
				continue
			}
			w.Considered++
			base, migU := ls.Contrib(from)+ls.Contrib(j), mig.delta(u, from, j)
			delta := (rmExact + ls.PriceAdd(u, j)) - base + migU
			if viol := caps[j].add(); viol > 0 {
				var sc sideScreen
				var b sideBound
				ls.screenAddFirst(&sc, u, j)
				ls.bracket(&b, &sc, j)
				pruned := false
				for _, rm := range []float64{rmBound, rmExact} {
					if !capPrunes(viol, rm, base, migU, 0, bestDelta) {
						continue
					}
					pruned = true
					if !prunes(&sideBound{lo: rm, exact: true}, &b, base, migU, 0, bestDelta) {
						t.Fatalf("move %d→%d: the capacity stage prunes (violation %v, removal %v) where the first stage does not", u, j, viol, rm)
					}
				}
				if pruned {
					w.CapPruned++
					if delta < bestDelta {
						t.Fatalf("move %d→%d: the capacity stage prunes a delta %v that beats %v", u, j, delta, bestDelta)
					}
				}
			}
			if delta < bestDelta {
				bestJ, bestDelta = j, delta
			}
		}
		if got := ev.bestMove(ls, u, mig, 0); got != bestJ {
			t.Fatalf("unit %d: bestMove picks %d, the exact scan %d", u, got, bestJ)
		}
		if bestJ != from {
			mig.note(mig.awayDelta(u, from, bestJ))
			ls.Move(u, bestJ)
			improved = true
		}
	}
	return improved
}

// walkSwaps is one swap sweep of WalkCapStage.
func (ev *Evaluator) walkSwaps(t *testing.T, ls *LoadState, mig *migration, w *CapWalk) bool {
	t.Helper()
	improved := false
	n := ls.NumUnits()
	one := sideBound{lo: 1, exact: true}
	for u := 0; u < n; u++ {
		if ev.pin[u] >= 0 {
			continue
		}
		a := ls.Assign(u)
		caps := ls.capSides(u)
		own := caps[a].leave()
		bestV, bestDelta := -1, -1e-9
		for v := u + 1; v < n; v++ {
			b := ls.Assign(v)
			if ev.pin[v] >= 0 || b == a || !mig.allows(mig.awayDelta(u, a, b)+mig.awayDelta(v, b, a)) {
				continue
			}
			w.Considered++
			base := ls.Contrib(a) + ls.Contrib(b)
			migU, migV := mig.delta(u, a, b), mig.delta(v, b, a)
			delta := (ls.priceExchange(a, u, v) + ls.priceExchange(b, v, u)) - base + migU + migV
			kv, cv, rv := ev.scale[v], ev.cpu[v], ev.ram[v]
			violU, violV := own.arrive(kv, cv, rv), caps[b].exchange(kv, cv, rv)
			if (violU > 0 && capPrunes(violU, capFloor, base, migU, migV, bestDelta)) ||
				(violV > 0 && capPrunes(violV, capFloor, base, migU, migV, bestDelta)) {
				w.CapPruned++
				var su, sv sideScreen
				var bu, bv sideBound
				ls.screenExchangeFirst(&su, a, u, v)
				ls.screenExchangeFirst(&sv, b, v, u)
				ls.bracket(&bu, &su, a)
				ls.bracket(&bv, &sv, b)
				if !prunes(&bu, &one, base, migU, migV, bestDelta) && !prunes(&bu, &bv, base, migU, migV, bestDelta) {
					t.Fatalf("swap %d,%d: the capacity stage prunes (violations %v, %v) where the first stage does not", u, v, violU, violV)
				}
				if delta < bestDelta {
					t.Fatalf("swap %d,%d: the capacity stage prunes a delta %v that beats %v", u, v, delta, bestDelta)
				}
			}
			if delta < bestDelta {
				bestV, bestDelta = v, delta
			}
		}
		if bestV >= 0 {
			b := ls.Assign(bestV)
			mig.note(mig.awayDelta(u, a, b) + mig.awayDelta(bestV, b, a))
			ls.Swap(u, bestV)
			improved = true
		}
	}
	return improved
}
