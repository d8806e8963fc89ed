package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kairos/internal/floats"
	"kairos/internal/model"
	"kairos/internal/polyfit"
)

// varyDiskSeries replaces the problem's constant working-set and update
// rate series with time-varying (sinusoidal, unit-distinct) ones, so the
// disk model's predicted write rate peaks at steps of its own rather than
// everywhere at once.
func varyDiskSeries(rng *rand.Rand, p *Problem) {
	for i := range p.Workloads {
		w := &p.Workloads[i]
		if w.WSBytes == nil || w.UpdateRate == nil {
			continue
		}
		T := w.CPU.Len()
		wsBase := (0.3 + rng.Float64()) * 1e9
		wsAmp := wsBase * (0.3 + 0.6*rng.Float64())
		ratePhase := rng.Float64() * 2 * math.Pi
		rateBase := 500 + rng.Float64()*2500
		rateAmp := rateBase * (0.5 + 0.5*rng.Float64())
		for t := 0; t < T; t++ {
			w.WSBytes.Values[t] = wsBase + wsAmp*math.Sin(11*2*math.Pi*float64(t)/float64(T)+ratePhase)
			w.UpdateRate.Values[t] = rateBase + rateAmp*math.Sin(13*2*math.Pi*float64(t)/float64(T)-ratePhase)
			if w.WSBytes.Values[t] < 0 {
				w.WSBytes.Values[t] = 0
			}
			if w.UpdateRate.Values[t] < 0 {
				w.UpdateRate.Values[t] = 0
			}
		}
	}
}

// varyRAMSeries replaces the problem's flat RAM series with time-varying
// ones, unit-distinct, so its sums peak at steps of their own and are
// priced over all T steps.
func varyRAMSeries(rng *rand.Rand, p *Problem) {
	for i := range p.Workloads {
		r := p.Workloads[i].RAMBytes.Values
		base, phase := r[0], rng.Float64()*2*math.Pi
		for t := range r {
			r[t] = base * (1 + 0.5*math.Sin(5*2*math.Pi*float64(t)/float64(len(r))+phase))
		}
	}
}

// quadraticDiskProfile is syntheticDiskProfile with genuine curvature: a
// positive rate² term (typical of saturation curves) and a quadratic
// envelope.
func quadraticDiskProfile() *model.DiskProfile {
	dp := syntheticDiskProfile()
	dp.Fit = polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.002, 0.003, 1e-9, 1e-9, 1e-5}}
	dp.Envelope = polyfit.Poly1D{Coeffs: []float64{9000, -1.5, -1e-4}}
	return dp
}

// nonMonotoneDiskProfile has a fit that falls with the working set at high
// update rates (a negative cross term): no bound built from per-interval
// extrema of the inputs is valid for it. The sample bound evaluates the
// polynomial only at real steps, so it needs nothing of its shape.
func nonMonotoneDiskProfile() *model.DiskProfile {
	dp := syntheticDiskProfile()
	dp.Fit = polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.004, 0.003, 0, -1e-6, 0}}
	return dp
}

// risingEnvelopeDiskProfile has a saturation envelope that rises with the
// working set, the other shape an extrema-based bound had to give up on.
func risingEnvelopeDiskProfile() *model.DiskProfile {
	dp := syntheticDiskProfile()
	dp.Envelope = polyfit.Poly1D{Coeffs: []float64{4000, 2}}
	return dp
}

// screenProfiles are the pricing shapes the screen tests run under.
var screenProfiles = []struct {
	name string
	dp   func() *model.DiskProfile
}{
	{"cpu+ram", nil},
	{"linear-disk-model", syntheticDiskProfile},
	{"quadratic-disk-model", quadraticDiskProfile},
	{"non-monotone-disk-model", nonMonotoneDiskProfile},
	{"rising-envelope-disk-model", risingEnvelopeDiskProfile},
}

// screenProblem builds a random problem priced under the named profile.
func screenProblem(rng *rand.Rand, nW, T int, dp func() *model.DiskProfile) *Problem {
	p := randomLoadStateProblem(rng, nW, T, dp != nil)
	if dp != nil {
		p.Disk = dp()
		varyDiskSeries(rng, p)
	}
	return p
}

// randomAssign returns a random in-range assignment for ev over K machines.
func randomAssign(rng *rand.Rand, ev *Evaluator, K int) []int {
	assign := make([]int, ev.NumUnits())
	for u := range assign {
		assign[u] = rng.Intn(K)
	}
	return assign
}

// mutateRandomly applies one of LoadState's mutators: Move, Swap, a burst of
// deferred moves off one machine rolled back the way reduceK rolls back a
// failed trial, or — when a machine can be emptied — the moves and the Fold
// of a successful one.
func mutateRandomly(rng *rand.Rand, ls *LoadState) {
	nU, K := ls.NumUnits(), ls.K()
	switch rng.Intn(8) {
	case 0, 1, 2:
		ls.Move(rng.Intn(nU), rng.Intn(K))
	case 3, 4, 5:
		if a, b := rng.Intn(nU), rng.Intn(nU); ls.Assign(a) != ls.Assign(b) {
			ls.Swap(a, b)
		}
	case 6:
		j := rng.Intn(K)
		units := append([]int(nil), ls.Members(j)...)
		dirty := make([]bool, K)
		for _, u := range units {
			to := (j + 1 + rng.Intn(K-1)) % K
			ls.move(u, to, false, true)
			dirty[to] = true
		}
		for i := len(units) - 1; i >= 0; i-- {
			ls.move(units[i], j, false, false)
		}
		ls.members[j] = append(ls.members[j][:0], units...)
		ls.rematerialize(j)
		for to := range dirty {
			if dirty[to] {
				ls.rematerialize(to)
			}
		}
	case 7:
		if K <= 3 {
			return
		}
		j := rng.Intn(K)
		for _, u := range append([]int(nil), ls.Members(j)...) {
			ls.move(u, (j+1+rng.Intn(K-1))%K, false, true)
		}
		ls.Fold(j)
	}
}

// TestCoarseBoundSoundness is the randomized-fleet property test of the
// peak-step sample bound: for random assignments, random candidate moves and
// swaps and random mutations of the state (Move, Swap, deferred moves with
// rollback, Fold), every screen value must not exceed the exact price it
// bounds, bit for bit — each stage of ScreenAdd ≤ PriceAdd, boundRemove ≤
// PriceRemove, both sides of ScreenSwap ≤ PriceSwap's, screenAddViol ≤ the
// exact violation — whatever the shape of the disk polynomial and its
// envelope. (That the bound also prunes under each profile is
// TestScreenedSweepEquivalence's to check.) Runs under -race in CI.
func TestCoarseBoundSoundness(t *testing.T) {
	for _, prof := range screenProfiles {
		t.Run(prof.name, func(t *testing.T) {
			for _, T := range []int{3, 50, 64, 96} {
				rng := rand.New(rand.NewSource(int64(1000 + T)))
				ev, err := NewEvaluator(screenProblem(rng, 12, T, prof.dp))
				if err != nil {
					t.Fatal(err)
				}
				ls := NewLoadState(ev, randomAssign(rng, ev, 6), 6)
				if !ls.Screened() {
					t.Fatal("NewLoadState built an unscreened state")
				}
				nU := ls.NumUnits()
				for iter := 0; iter < 400; iter++ {
					u, j := rng.Intn(nU), rng.Intn(ls.K())
					exact := ls.PriceAdd(u, j)
					full := ls.ScreenAdd(u, j)
					if !(full <= exact) {
						t.Fatalf("T=%d iter %d: ScreenAdd(%d,%d) = %v exceeds PriceAdd %v", T, iter, u, j, full, exact)
					}
					if lo, rm := ls.boundRemove(u), ls.PriceRemove(u); !(lo <= rm) {
						t.Fatalf("T=%d iter %d: boundRemove(%d) = %v exceeds PriceRemove %v", T, iter, u, lo, rm)
					}
					if ls.Assign(u) != j {
						var sc sideScreen
						ls.screenAddFirst(&sc, u, j)
						first := ls.bound(&sc, j)
						ls.screenAddRest(&sc, u, j)
						rest := ls.bound(&sc, j)
						if !(first <= rest) || !floats.Same(rest, full) {
							t.Fatalf("T=%d iter %d: move screen stages %v, %v do not build up to ScreenAdd %v", T, iter, first, rest, full)
						}
						want := ev.serverEval(j, membersCopyWith(ls, j, u)).Violation
						if got := ls.screenAddViol(u, j); !(got <= want) {
							t.Fatalf("T=%d iter %d: screenAddViol(%d,%d) = %v exceeds the exact violation %v", T, iter, u, j, got, want)
						}
					}

					if v := rng.Intn(nU); ls.Assign(u) != ls.Assign(v) {
						nu, nv := ls.PriceSwap(u, v)
						loU, loV := ls.ScreenSwap(u, v)
						if !(loU <= nu) || !(loV <= nv) {
							t.Fatalf("T=%d iter %d: ScreenSwap(%d,%d) = %v/%v exceeds PriceSwap %v/%v", T, iter, u, v, loU, loV, nu, nv)
						}
						a := ls.Assign(u)
						var sc sideScreen
						ls.screenExchangeFirst(&sc, a, u, v)
						first := ls.bound(&sc, a)
						ls.screenExchangeRest(&sc, a, u, v)
						rest := ls.bound(&sc, a)
						if !(first <= rest) || !floats.Same(rest, loU) {
							t.Fatalf("T=%d iter %d: swap screen stages %v, %v do not build up to ScreenSwap's %v", T, iter, first, rest, loU)
						}
					}
					mutateRandomly(rng, ls)
				}
			}
		})
	}
}

// wantSample recomputes machine j's sample from its member list alone: the
// canonical sums re-accumulated at the full horizon, then the first argmax
// overall and per segment for CPU and RAM and the first argmax of the
// predicted write rate.
func wantSample(ls *LoadState, j int) []int32 {
	ev := fullHorizon(ls.ev)
	T := ev.T
	cpu, ram := make([]float64, T), make([]float64, T)
	var ws, rate []float64
	if ev.p.Disk != nil {
		ws, rate = make([]float64, T), make([]float64, T)
	}
	ev.accumulateInto(ls.members[j], cpu, ram, ws, rate)
	argmax := func(vals []float64, lo, hi int) int {
		arg := lo
		for t := lo; t < hi; t++ {
			if vals[t] > vals[arg] {
				arg = t
			}
		}
		return arg
	}
	var want []int32
	for _, vals := range [][]float64{cpu, ram} {
		want = append(want, int32(argmax(vals, 0, T)))
	}
	for _, vals := range [][]float64{cpu, ram} {
		global := argmax(vals, 0, T)
		for s := 0; s < sampleSegs; s++ {
			lo, hi := s*T/sampleSegs, (s+1)*T/sampleSegs
			if global < lo || global >= hi {
				want = append(want, int32(argmax(vals, lo, hi)))
			}
		}
	}
	if ev.p.Disk != nil {
		pred := make([]float64, T)
		for t := range pred {
			pred[t] = ev.p.Disk.PredictWriteMBps(ws[t], rate[t])
		}
		want = append(want, int32(argmax(pred, 0, T)))
	}
	return want
}

// TestSampleTracksCanonicalSums checks that after every mutator each
// machine's sample is the per-segment peak steps of its canonical sums, with
// the RAM flat (priced at one step, its sample each segment's first step)
// and varying. A stale sample is still a sound one, so nothing else would
// notice it but the count of exact pricings.
func TestSampleTracksCanonicalSums(t *testing.T) {
	for _, tc := range []struct{ withDisk, varyRAM bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		withDisk := tc.withDisk
		rng := rand.New(rand.NewSource(57))
		var dp func() *model.DiskProfile
		if withDisk {
			dp = quadraticDiskProfile
		}
		p := screenProblem(rng, 12, 96, dp)
		if tc.varyRAM {
			varyRAMSeries(rng, p)
		}
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.flatRAM == tc.varyRAM {
			t.Fatalf("%+v: flat RAM %v", tc, ev.flatRAM)
		}
		ls := NewLoadState(ev, randomAssign(rng, ev, 7), 7)
		for iter := 0; iter < 300; iter++ {
			for j := 0; j < ls.K(); j++ {
				got, want := ls.sampleOf(j), wantSample(ls, j)
				if len(got) != len(want) {
					t.Fatalf("withDisk=%v: sample of %d steps, want %d", withDisk, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("withDisk=%v iter %d: machine %d sample %v, want %v", withDisk, iter, j, got, want)
					}
				}
			}
			mutateRandomly(rng, ls)
		}
		if ls.K() == 7 {
			t.Fatal("no Fold was exercised")
		}
	}
}

// TestScreenedSweepEquivalence is the pruned-vs-unpruned equivalence
// property: the screened hill climb must produce the bit-identical final
// assignment and objective as the unscreened one on randomized fleets,
// consider the same candidates, and price fewer of them exactly — under
// every profile, including the ones whose shape an extrema-based bound could
// not use. Runs under -race in CI.
func TestScreenedSweepEquivalence(t *testing.T) {
	for _, prof := range screenProfiles {
		t.Run(prof.name, func(t *testing.T) {
			pricedS, pricedU := 0, 0
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(200 + seed))
				p := screenProblem(rng, 14, 96, prof.dp)
				evS, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				evU, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				evU.noScreen = true
				K := 7
				seedAssign := randomAssign(rng, evS, K)
				ctx := context.Background()
				cS := evS.hillClimb(ctx, append([]int(nil), seedAssign...), K)
				cU := evU.hillClimb(ctx, append([]int(nil), seedAssign...), K)
				aS, oS, fS := cS.assign, cS.obj, cS.feas
				aU, oU, fU := cU.assign, cU.obj, cU.feas
				if !floats.Same(oS, oU) || fS != fU {
					t.Fatalf("seed %d: screened climb (obj=%v feas=%v) != unscreened (obj=%v feas=%v)",
						seed, oS, fS, oU, fU)
				}
				for u := range aS {
					if aS[u] != aU[u] {
						t.Fatalf("seed %d: screened assignment differs at unit %d: %d vs %d", seed, u, aS[u], aU[u])
					}
				}
				if evS.Fevals != evU.Fevals {
					t.Fatalf("seed %d: screened climb considered %d candidates, unscreened %d",
						seed, evS.Fevals, evU.Fevals)
				}
				pricedS += evS.stats.Priced
				pricedU += evU.stats.Priced
			}
			if 2*pricedS > pricedU {
				t.Fatalf("screened climbs priced %d candidates exactly, unscreened %d: the screen prunes less than half", pricedS, pricedU)
			}
		})
	}
}

// TestScreenedSolveEquivalence checks the equivalence end to end through
// the solver entry points: Solve and Resolve with the sweep screen must
// return bit-identical plans to runs on an evaluator with the screen off.
func TestScreenedSolveEquivalence(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("full solves are slow under the race detector")
	}
	rng := rand.New(rand.NewSource(77))
	p := randomLoadStateProblem(rng, 10, 48, true)
	varyDiskSeries(rng, p)
	opt := DefaultSolveOptions()
	opt.DirectFevals = 300
	evaluator := func(noScreen bool) *Evaluator {
		t.Helper()
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		ev.noScreen = noScreen
		return ev
	}

	solS, err := evaluator(false).solve(context.Background(), opt, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	solU, err := evaluator(true).solve(context.Background(), opt, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if solS.K != solU.K || !floats.Same(solS.Objective, solU.Objective) || solS.Feasible != solU.Feasible {
		t.Fatalf("screened Solve (K=%d obj=%v) != unscreened (K=%d obj=%v)",
			solS.K, solS.Objective, solU.K, solU.Objective)
	}
	for u := range solS.Assign {
		if solS.Assign[u] != solU.Assign[u] {
			t.Fatalf("screened Solve assignment differs at unit %d", u)
		}
	}
	if solS.Stats.Priced >= solU.Stats.Priced {
		t.Fatalf("screened Solve priced %d candidates exactly, unscreened %d", solS.Stats.Priced, solU.Stats.Priced)
	}

	inc := IncumbentFromSolution(p, solS)
	ropt := DefaultResolveOptions()
	ropt.DirectFevals = 300
	resS, err := evaluator(false).resolve(context.Background(), inc, ropt, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	resU, err := evaluator(true).resolve(context.Background(), inc, ropt, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if resS.K != resU.K || !floats.Same(resS.Objective, resU.Objective) || resS.Migrated != resU.Migrated {
		t.Fatalf("screened Resolve (K=%d obj=%v mig=%d) != unscreened (K=%d obj=%v mig=%d)",
			resS.K, resS.Objective, resS.Migrated, resU.K, resU.Objective, resU.Migrated)
	}
	for u := range resS.Assign {
		if resS.Assign[u] != resU.Assign[u] {
			t.Fatalf("screened Resolve assignment differs at unit %d", u)
		}
	}
}

// TestCoarseBoundAllocs asserts the screen allocates nothing — it runs
// inside every candidate of a screened sweep — with the screen on and off,
// and for a unit bounded onto its own machine. Skipped under the race
// detector, which instruments allocations.
func TestCoarseBoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, withDisk := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		p := randomLoadStateProblem(rng, 10, 64, withDisk)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		K := 5
		ls := NewLoadState(ev, randomAssign(rng, ev, K), K)
		var u, v int
		for v = 1; v < ls.NumUnits(); v++ {
			if ls.Assign(v) != ls.Assign(0) {
				break
			}
		}
		j := (ls.Assign(u) + 1) % K
		var sink float64
		// The screen is turned off second: a state built screened keeps the
		// sample an unscreened one would not read.
		for _, off := range []bool{false, true} {
			ev.noScreen = off
			if n := testing.AllocsPerRun(200, func() {
				sink += ls.ScreenAdd(u, j) + ls.ScreenAdd(u, ls.Assign(u)) + ls.screenAddViol(u, j)
				sU, sV := ls.ScreenSwap(u, v)
				sink += sU + sV
			}); n != 0 {
				t.Fatalf("withDisk=%v noScreen=%v: the screen allocated %v times per run, want 0", withDisk, off, n)
			}
		}
		_ = sink
	}
}

// TestEvalScratchAllocs asserts Eval reuses its member and aggregate
// scratch and its reuse table: after a warm-up call, evaluations allocate
// nothing (DIRECT calls Eval thousands of times per solve), whether every
// machine is found in the table (the same assignment again) or two are
// priced afresh and stored (one unit moved per call) in a table that has
// room — it reserves that before the machines are priced, and only doubling
// it allocates. The problem's RAM and working set are flat, priced at one
// step and, forced, at all T. Skipped under the race detector, which
// instruments allocations.
func TestEvalScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, tc := range allocCases {
		rng := rand.New(rand.NewSource(13))
		p := randomLoadStateProblem(rng, 12, 64, tc.withDisk)
		ev := tc.evaluator(t, p)
		K := 6
		assign := randomAssign(rng, ev, K)
		ev.Eval(assign, K) // warm-up grows the scratch once
		var sink float64
		if n := testing.AllocsPerRun(100, func() {
			obj, _ := ev.Eval(assign, K)
			sink += obj
		}); n != 0 {
			t.Fatalf("%+v: Eval allocated %v times per run on table hits, want 0", tc, n)
		}
		priced, slots := ev.stats.EvalPriced, len(ev.reuse.slots)
		if n := testing.AllocsPerRun(100, func() {
			assign[rng.Intn(len(assign))] = rng.Intn(K)
			obj, _ := ev.Eval(assign, K)
			sink += obj
		}); n != 0 {
			t.Fatalf("%+v: Eval allocated %v times per run on table misses, want 0", tc, n)
		}
		if ev.stats.EvalPriced < priced+50 || len(ev.reuse.slots) != slots {
			t.Fatalf("%+v: the walk summed %d new machines and the table went from %d to %d slots: want misses and no growth",
				tc, ev.stats.EvalPriced-priced, slots, len(ev.reuse.slots))
		}
		_ = sink
	}
}

// TestEvalScratchClone checks clones do not share Eval scratch with their
// parent: interleaved evaluations must match fresh-evaluator results.
func TestEvalScratchClone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomLoadStateProblem(rng, 10, 48, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	K := 5
	a1 := randomAssign(rng, ev, K)
	a2 := randomAssign(rng, ev, K)
	ev.Eval(a1, K) // populate parent scratch
	c := ev.Clone()
	o2, _ := c.Eval(a2, K)
	o1, _ := ev.Eval(a1, K)
	fresh, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := fresh.Eval(a1, K)
	w2, _ := fresh.Eval(a2, K)
	if !floats.Same(o1, w1) || !floats.Same(o2, w2) {
		t.Fatalf("clone-interleaved Eval drifted: got %v/%v, want %v/%v", o1, o2, w1, w2)
	}
}

// TestConflictedBinarySearch cross-checks the sorted-list binary search
// against a naive scan over a problem with replicas and explicit
// anti-affinity.
func TestConflictedBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomLoadStateProblem(rng, 10, 48, false)
	p.AntiAffinity = [][2]int{{0, 1}, {2, 3}, {0, 4}}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	nU := ev.NumUnits()
	naive := func(a, b int) bool {
		for _, c := range ev.conflicts[a] {
			if c == b {
				return true
			}
		}
		return false
	}
	anyConflict := false
	for a := 0; a < nU; a++ {
		for i := 1; i < len(ev.conflicts[a]); i++ {
			if ev.conflicts[a][i-1] > ev.conflicts[a][i] {
				t.Fatalf("conflicts[%d] not sorted: %v", a, ev.conflicts[a])
			}
		}
		for b := 0; b < nU; b++ {
			want := naive(a, b)
			anyConflict = anyConflict || want
			if got := ev.conflicted(a, b); got != want {
				t.Fatalf("conflicted(%d,%d) = %v, want %v (list %v)", a, b, got, want, ev.conflicts[a])
			}
		}
	}
	if !anyConflict {
		t.Fatal("test problem produced no conflicts; anti-affinity not exercised")
	}
}

// expBracket is the exp bracket the screen's checks read: sideBound's ends on
// [0, 1], math.Exp at both ends elsewhere.
func expBracket(x float64) (lo, hi float64) {
	var b sideBound
	if b.set(x, 0, 0); b.exact {
		return b.lo, b.lo
	}
	return b.lo, b.upper()
}

// TestExpBracket checks lo ≤ math.Exp(x) ≤ hi for every float64 within 4096
// ulps of each grid point, for random points in [0, 1], and at the edges:
// 0, 1, NaN, ±Inf and negatives, which outside [0, 1] get math.Exp at both
// ends.
func TestExpBracket(t *testing.T) {
	check := func(x float64) {
		lo, hi := expBracket(x)
		if e := math.Exp(x); !(lo <= e && e <= hi) {
			t.Fatalf("expBracket(%v = %#x) = [%v, %v], math.Exp %v", x, math.Float64bits(x), lo, hi, e)
		}
	}
	for i := 0; i <= expGrid; i++ {
		a := float64(i) / expGrid
		below, above := a, a
		for n := 0; n <= 4096; n++ {
			check(below)
			check(above)
			below, above = math.Nextafter(below, -1), math.Nextafter(above, 2)
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		check(rng.Float64())
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), 5e-324, -5e-324, -0.5, -1e-300, 3, 710, -745, math.Inf(1), math.Inf(-1)} {
		check(x)
		if lo, hi := expBracket(x); (x < 0 || x > 1) && !(floats.Same(lo, math.Exp(x)) && floats.Same(hi, lo)) {
			t.Errorf("expBracket(%v) = [%v, %v] outside [0, 1], want math.Exp at both ends", x, lo, hi)
		}
	}
	if lo, hi := expBracket(math.NaN()); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("expBracket(NaN) = [%v, %v], want NaN", lo, hi)
	}
}

// FuzzScreenDecision holds each of the sweeps' four screen check shapes —
// a move stage, a swap's first side alone, both swap sides bounded, and a
// swap side priced beside the other's bound — to the plain expression with
// math.Exp: deciding from the bracket must give the same answer. The norm is
// tried as given and folded into [0, 1], where the bracket is not math.Exp
// itself.
//
// Then the capacity stage's three shapes — a move's destination, a swap's
// first side, its second side — against the first stage behind them: a
// side's CPU and RAM values ldC, ldR at its machine's two peak steps go to
// the stage; with the arriving unit's own peak-step values xC, xR beside
// them they go to the first stage, priced by pricePeaks with pairs conflict
// pairs. A prune by the stage must be a prune by the first stage, whatever
// the values, the removal price c, base, the migration terms and bestDelta.
// The caps are folded into what Problem.Validate admits, positive and
// finite; the other swap side's bracket is one the first stage can hold,
// norm folded into [0, 1] and a non-negative violation.
func FuzzScreenDecision(f *testing.F) {
	f.Add(0.4, 0.0, 0, 1.3, 2.7, 0.0, 0.0, -1e-9, 0.9, 0.5, 1.2, 0.7, 1.0, 1.0)
	f.Add(0.9, 0.0, 1, 2.1, 1e6+3.5, 0.05, -0.02, -1e-9, 1.01, 0.2, 0.3, 0.99, 1.0, 1.0)
	f.Add(0.25, 1e-3, 0, 1.28, 2.5693, 0.0, 0.0, -1e-9, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0)
	f.Add(1.0, 0.0, 0, math.E, 2*math.E, 0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 1.5, 2.5)
	f.Add(0.5, math.Inf(1), 2, -1.0, math.Inf(1), 0.0, 0.0, -1e-9, math.Inf(1), 0.0, 0.0, 0.0, 1.0, 1.0)
	f.Add(math.NaN(), 0.0, 0, 1.0, 2.0, 0.0, 0.0, -1e-9, math.NaN(), 2.0, 0.0, math.NaN(), 1.0, 1.0)
	f.Add(0.5, 0.0, 0, math.Inf(-1), math.Inf(1), 0.0, 0.0, math.Inf(-1), 2.0, 0.0, math.Inf(1), 0.0, 1.0, 1.0)
	f.Add(0.5, 0.0, 0, 1.0, 0.0, math.Inf(-1), 0.0, math.Inf(-1), 2.0, 0.0, 0.0, 0.0, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, norm, viol float64, pairs int, c, base, migU, migV, bestDelta, ldC, ldR, xC, xR, capC, capR float64) {
		pairs %= 64
		for _, x := range []float64{norm, norm - math.Floor(norm)} {
			exact := contribWith(x, viol, pairs)
			var mv, first, bu, bv, pv sideBound
			for _, b := range []*sideBound{&mv, &first, &bu, &bv, &pv} {
				b.set(x, viol, pairs)
			}
			one, from, pu := sideBound{lo: 1, exact: true}, sideBound{lo: c, exact: true}, sideBound{lo: c, exact: true}
			for _, s := range []struct {
				name      string
				got, want bool
			}{
				{"move", prunes(&from, &mv, base, migU, 0, bestDelta), (c+exact)-base+migU >= bestDelta},
				{"swap first side", prunes(&first, &one, base, migU, migV, bestDelta), (exact+1)-base+migU+migV >= bestDelta},
				{"swap both sides", prunes(&bu, &bv, base, migU, migV, bestDelta), (exact+exact)-base+migU+migV >= bestDelta},
				{"swap side priced", prunes(&pu, &pv, base, migU, migV, bestDelta), (c+exact)-base+migU+migV >= bestDelta},
			} {
				if s.got != s.want {
					t.Fatalf("%s at norm %v: bracketed decision %v, with math.Exp %v", s.name, x, s.got, s.want)
				}
			}
		}

		capC, capR = math.Abs(capC), math.Abs(capR)
		if !(capC > 0 && capR > 0) || math.IsInf(capC+capR, 1) {
			return
		}
		side := capSide{capC: capC, capR: capR}
		stage := side.viol(ldC, ldR)
		if stage == 0 {
			return // the stage decides nothing
		}
		var pk peaks
		for _, v := range [...][2]float64{{xC, xR}, {ldC, ldR}} {
			if v[0] > pk.cpu {
				pk.cpu = v[0]
			}
			if v[1] > pk.ram {
				pk.ram = v[1]
			}
		}
		ev := &Evaluator{p: &Problem{}, capCPU: []float64{capC}, capRAM: []float64{capR}}
		fv, fn := ev.pricePeaks(0, pk.cpu, pk.ram, 0, 1, nil, nil)
		var fb, ob sideBound
		fb.set(fn, fv, pairs)
		otherNorm, otherViol := norm-math.Floor(norm), math.Abs(viol)
		if math.IsNaN(otherNorm) {
			otherNorm = 0
		}
		if math.IsNaN(otherViol) {
			otherViol = 0
		}
		ob.set(otherNorm, otherViol, pairs)
		one, rm := sideBound{lo: 1, exact: true}, sideBound{lo: c, exact: true}
		for _, s := range []struct {
			name         string
			stage, first bool
		}{
			{"move destination", capPrunes(stage, c, base, migU, 0, bestDelta), prunes(&rm, &fb, base, migU, 0, bestDelta)},
			{"swap first side", capPrunes(stage, capFloor, base, migU, migV, bestDelta), prunes(&fb, &one, base, migU, migV, bestDelta)},
			{"swap second side", capPrunes(stage, capFloor, base, migU, migV, bestDelta), prunes(&ob, &fb, base, migU, migV, bestDelta)},
		} {
			if s.stage && !s.first {
				t.Fatalf("%s: the capacity stage prunes (violation %v, first stage's peaks %v) where the first stage does not", s.name, stage, pk)
			}
		}
	})
}

// exactScanMove is bestMove as it ran before its checks read the exp bracket
// and the removal bound: PriceRemove first, each check on bounds priced with
// math.Exp. It returns the move it picks and the candidates it priced.
func exactScanMove(ls *LoadState, u int) (bestJ, priced int) {
	from := ls.Assign(u)
	cFromNew, migU := ls.PriceRemove(u), 0.0
	bestJ, bestDelta := from, -1e-9
	for j := 0; j < ls.K(); j++ {
		if j == from {
			continue
		}
		base := ls.Contrib(from) + ls.Contrib(j)
		var sc sideScreen
		ls.screenAddFirst(&sc, u, j)
		if (cFromNew+ls.bound(&sc, j))-base+migU >= bestDelta {
			continue
		}
		ls.screenAddRest(&sc, u, j)
		if (cFromNew+ls.bound(&sc, j))-base+migU >= bestDelta {
			continue
		}
		priced++
		if delta := (cFromNew + ls.PriceAdd(u, j)) - base + migU; delta < bestDelta {
			bestDelta, bestJ = delta, j
		}
	}
	return bestJ, priced
}

// exactSweepSwaps is the swap sweep as it ran before its checks read the exp
// bracket (no memo, no migration pricing). It returns the exact pricings.
func exactSweepSwaps(ls *LoadState) (priced int) {
	ev := ls.ev
	migU, migV := 0.0, 0.0
	for u := 0; u < ls.NumUnits(); u++ {
		if ev.pin[u] >= 0 {
			continue
		}
		a := ls.Assign(u)
		bestV, bestDelta := -1, -1e-9
		for v := u + 1; v < ls.NumUnits(); v++ {
			b := ls.Assign(v)
			if ev.pin[v] >= 0 || b == a {
				continue
			}
			base := ls.Contrib(a) + ls.Contrib(b)
			var su, sv sideScreen
			ls.screenExchangeFirst(&su, a, u, v)
			loU := ls.bound(&su, a)
			if (loU+1)-base+migU+migV >= bestDelta {
				continue
			}
			ls.screenExchangeFirst(&sv, b, v, u)
			loV := ls.bound(&sv, b)
			if (loU+loV)-base+migU+migV >= bestDelta {
				continue
			}
			ls.screenExchangeRest(&su, a, u, v)
			ls.screenExchangeRest(&sv, b, v, u)
			loU, loV = ls.bound(&su, a), ls.bound(&sv, b)
			if (loU+loV)-base+migU+migV >= bestDelta {
				continue
			}
			priced++
			nu := ls.priceExchange(a, u, v)
			if (nu+loV)-base+migU+migV >= bestDelta {
				continue
			}
			priced++
			if delta := (nu + ls.priceExchange(b, v, u)) - base + migU + migV; delta < bestDelta {
				bestDelta, bestV = delta, v
			}
		}
		if bestV >= 0 {
			ls.Swap(u, bestV)
		}
	}
	return priced
}

// TestScreenMatchesExactScan: the sweeps decide their checks from exp
// brackets and price a move's removal only once a candidate survives its
// bound; the scans they replace, every check on math.Exp and the removal
// priced first, pick the same move for every unit and the same swaps, and
// price exactly the same candidates — under every screen profile, on random
// states and on states a climb has converged.
func TestScreenMatchesExactScan(t *testing.T) {
	ctx := context.Background()
	for _, prof := range screenProfiles {
		t.Run(prof.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(300 + seed))
				ev, err := NewEvaluator(screenProblem(rng, 16, 64, prof.dp))
				if err != nil {
					t.Fatal(err)
				}
				K := 6
				random := randomAssign(rng, ev, K)
				for _, start := range [][]int{random, ev.hillClimb(ctx, append([]int(nil), random...), K).assign} {
					ls, ref := NewLoadState(ev, start, K), NewLoadState(ev, start, K)
					for u := 0; u < ls.NumUnits(); u++ {
						before := ev.stats.Priced
						got := ev.bestMove(ls, u, nil, 0)
						want, priced := exactScanMove(ref, u)
						if got != want || ev.stats.Priced-before != priced {
							t.Fatalf("seed %d unit %d: bestMove picks %d pricing %d candidates, the exact scan %d pricing %d",
								seed, u, got, ev.stats.Priced-before, want, priced)
						}
					}
					before := ev.stats.Priced
					ev.sweep(ctx, ls, nil, nil, nil, &swapSweep)
					priced := exactSweepSwaps(ref)
					if !reflect.DeepEqual(ls.Assignment(), ref.Assignment()) || ev.stats.Priced-before != priced {
						t.Fatalf("seed %d: the swap sweep priced %d candidates, the exact sweep %d, or their swaps differ", seed, ev.stats.Priced-before, priced)
					}
				}
			}
		})
	}
}
