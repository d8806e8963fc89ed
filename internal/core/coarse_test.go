package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"kairos/internal/floats"
	"kairos/internal/model"
	"kairos/internal/polyfit"
)

// varyDiskSeries replaces the problem's constant working-set and update
// rate series with time-varying (sinusoidal, unit-distinct) ones so the
// subtractive coarse bounds see intra-bucket spread — the regime where a
// bucket's aggregate lower bound (loSum − hiOut + loIn) dips below zero
// and the disk polynomial would be evaluated outside its verified
// operating box if the bound paths did not clamp.
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
			// High-frequency components guarantee spread inside every
			// bucket, not just across buckets.
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

// quadraticDiskProfile is syntheticDiskProfile with genuine curvature: a
// positive rate² term (typical of saturation curves) and a quadratic
// envelope. Monotone over the operating box, but quadratic terms explode
// at arguments far outside it — exactly what the subtractive bound
// aggregates produce if they are not clamped into the verified range.
func quadraticDiskProfile() *model.DiskProfile {
	dp := syntheticDiskProfile()
	dp.Fit = polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.002, 0.003, 1e-9, 1e-9, 1e-5}}
	dp.Envelope = polyfit.Poly1D{Coeffs: []float64{9000, -1.5, -1e-4}}
	return dp
}

// randomAssign returns a random in-range assignment for ev over K machines.
func randomAssign(rng *rand.Rand, ev *Evaluator, K int) []int {
	assign := make([]int, ev.NumUnits())
	for u := range assign {
		assign[u] = rng.Intn(K)
	}
	return assign
}

// TestCoarseBoundSoundness is the randomized-fleet property test of the
// bucketed bounds: for random assignments, random candidate moves and
// random accepted mutations, every coarse bound must bracket the exact
// pricer bit-for-bit on the exact side — BoundAdd.lo ≤ PriceAdd ≤
// BoundAdd.hi, and likewise for BoundRemove/PriceRemove and
// BoundSwap/PriceSwap. Runs under -race in CI.
func TestCoarseBoundSoundness(t *testing.T) {
	profiles := []struct {
		name string
		dp   *model.DiskProfile
	}{
		{"cpu+ram", nil},
		{"linear-disk-model", syntheticDiskProfile()},
		{"quadratic-disk-model", quadraticDiskProfile()},
	}
	for _, prof := range profiles {
		withDisk := prof.dp != nil
		t.Run(prof.name, func(t *testing.T) {
			for _, T := range []int{50, 64, 96} {
				rng := rand.New(rand.NewSource(int64(1000 + T)))
				p := randomLoadStateProblem(rng, 12, T, withDisk)
				p.Disk = prof.dp
				varyDiskSeries(rng, p)
				ev, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				if ev.coarse == nil {
					t.Fatal("NewEvaluator did not build coarse tables")
				}
				K := 6
				ls := NewLoadState(ev, randomAssign(rng, ev, K), K)
				nU := ls.NumUnits()
				for iter := 0; iter < 400; iter++ {
					u := rng.Intn(nU)
					j := rng.Intn(K)

					lo, hi := ls.BoundAdd(u, j)
					exact := ls.PriceAdd(u, j)
					if !(lo <= exact && exact <= hi) {
						t.Fatalf("T=%d iter %d: BoundAdd(%d,%d) = [%v, %v] does not bracket PriceAdd %v",
							T, iter, u, j, lo, hi, exact)
					}
					if ls.Assign(u) != j {
						if got := ls.ScreenAdd(u, j); !floats.Same(got, lo) {
							t.Fatalf("ScreenAdd(%d,%d) = %v, want BoundAdd lower %v", u, j, got, lo)
						}
					}

					rlo, rhi := ls.BoundRemove(u)
					rexact := ls.PriceRemove(u)
					if !(rlo <= rexact && rexact <= rhi) {
						t.Fatalf("T=%d iter %d: BoundRemove(%d) = [%v, %v] does not bracket PriceRemove %v",
							T, iter, u, rlo, rhi, rexact)
					}

					v := rng.Intn(nU)
					if ls.Assign(u) != ls.Assign(v) {
						loU, hiU, loV, hiV := ls.BoundSwap(u, v)
						nu, nv := ls.PriceSwap(u, v)
						if !(loU <= nu && nu <= hiU) || !(loV <= nv && nv <= hiV) {
							t.Fatalf("T=%d iter %d: BoundSwap(%d,%d) = [%v,%v]/[%v,%v] does not bracket PriceSwap %v/%v",
								T, iter, u, v, loU, hiU, loV, hiV, nu, nv)
						}
						sU, sV := ls.ScreenSwap(u, v)
						if !floats.Same(sU, loU) || !floats.Same(sV, loV) {
							t.Fatalf("ScreenSwap(%d,%d) = %v/%v, want BoundSwap lowers %v/%v", u, v, sU, sV, loU, loV)
						}
					}

					// Mutate the state so rematerialized bucket aggregates
					// (and occasionally Swap's path) are exercised too.
					switch iter % 3 {
					case 0:
						ls.Move(rng.Intn(nU), rng.Intn(K))
					case 1:
						a, b := rng.Intn(nU), rng.Intn(nU)
						if ls.Assign(a) != ls.Assign(b) {
							ls.Swap(a, b)
						}
					}
				}
			}
		})
	}
}

// TestScreenedSweepEquivalence is the pruned-vs-unpruned equivalence
// property: the screened hill climb must produce the bit-identical final
// assignment and objective as the unscreened one on randomized fleets,
// while pricing no more candidates exactly. Runs under -race in CI.
func TestScreenedSweepEquivalence(t *testing.T) {
	profiles := []struct {
		name string
		dp   *model.DiskProfile
	}{
		{"cpu+ram", nil},
		{"linear-disk-model", syntheticDiskProfile()},
		{"quadratic-disk-model", quadraticDiskProfile()},
	}
	for _, prof := range profiles {
		withDisk := prof.dp != nil
		t.Run(prof.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(200 + seed))
				p := randomLoadStateProblem(rng, 14, 96, withDisk)
				p.Disk = prof.dp
				varyDiskSeries(rng, p)
				evS, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				evU, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				evU.SetBucketWidth(-1) // screening off
				if evU.coarse != nil {
					t.Fatal("SetBucketWidth(-1) left coarse tables active")
				}
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
				if evS.Fevals > evU.Fevals {
					t.Fatalf("seed %d: screened climb priced more candidates (%d) than unscreened (%d)",
						seed, evS.Fevals, evU.Fevals)
				}
			}
		})
	}
}

// TestScreenedSolveEquivalence checks the equivalence end to end through
// the public solver entry points: Solve and Resolve with the default
// coarse screen must return bit-identical plans to runs with screening
// disabled via SolveOptions.BucketWidth.
func TestScreenedSolveEquivalence(t *testing.T) {
	if testing.Short() && raceEnabled {
		t.Skip("full solves are slow under the race detector")
	}
	rng := rand.New(rand.NewSource(77))
	p := randomLoadStateProblem(rng, 10, 48, true)
	varyDiskSeries(rng, p)
	opt := DefaultSolveOptions()
	opt.DirectFevals = 300
	optOff := opt
	optOff.BucketWidth = -1

	solS, err := Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	solU, err := Solve(context.Background(), p, optOff)
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

	inc := IncumbentFromSolution(p, solS)
	ropt := DefaultResolveOptions()
	ropt.DirectFevals = 300
	roptOff := ropt
	roptOff.BucketWidth = -1
	resS, err := Resolve(context.Background(), p, inc, ropt)
	if err != nil {
		t.Fatal(err)
	}
	resU, err := Resolve(context.Background(), p, inc, roptOff)
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

// TestCoarseBoundAllocs asserts the bound pricers allocate nothing — they
// run inside every candidate of a screened sweep. Skipped under the race
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
		if n := testing.AllocsPerRun(200, func() {
			sink += ls.ScreenAdd(u, j)
			lo, hi := ls.BoundAdd(u, j)
			sink += lo + hi
			lo, hi = ls.BoundRemove(u)
			sink += lo + hi
			loU, hiU, loV, hiV := ls.BoundSwap(u, v)
			sink += loU + hiU + loV + hiV
			sU, sV := ls.ScreenSwap(u, v)
			sink += sU + sV
		}); n != 0 {
			t.Fatalf("withDisk=%v: bound pricers allocated %v times per run, want 0", withDisk, n)
		}
		_ = sink
	}
}

// TestEvalScratchAllocs asserts Eval reuses its member and aggregate
// scratch and its reuse table: after a warm-up call, evaluations allocate
// nothing (DIRECT calls Eval thousands of times per solve), whether every
// machine is found in the table (the same assignment again) or two are
// priced afresh and stored (one unit moved per call). Skipped under the
// race detector, which instruments allocations.
func TestEvalScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for _, withDisk := range []bool{false, true} {
		rng := rand.New(rand.NewSource(13))
		p := randomLoadStateProblem(rng, 12, 64, withDisk)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		K := 6
		assign := randomAssign(rng, ev, K)
		ev.Eval(assign, K) // warm-up grows the scratch once
		var sink float64
		if n := testing.AllocsPerRun(100, func() {
			obj, _ := ev.Eval(assign, K)
			sink += obj
		}); n != 0 {
			t.Fatalf("withDisk=%v: Eval allocated %v times per run on table hits, want 0", withDisk, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			assign[rng.Intn(len(assign))] = rng.Intn(K)
			obj, _ := ev.Eval(assign, K)
			sink += obj
		}); n != 0 {
			t.Fatalf("withDisk=%v: Eval allocated %v times per run on table misses, want 0", withDisk, n)
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

// TestDiskMonotonicityDetection pins the constructor's verification: the
// synthetic profile (increasing fit, decreasing envelope) must enable the
// disk bounds, and profiles violating either property must fall back to
// the trivially sound zero lower bound.
func TestDiskMonotonicityDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(dp *model.DiskProfile) *Evaluator {
		t.Helper()
		p := randomLoadStateProblem(rng, 6, 48, true)
		p.Disk = dp
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	ev := build(syntheticDiskProfile())
	if !ev.coarse.diskMono || !ev.coarse.envMono {
		t.Fatalf("synthetic profile: diskMono=%v envMono=%v, want both true",
			ev.coarse.diskMono, ev.coarse.envMono)
	}

	nonMono := syntheticDiskProfile()
	// A large negative cross term makes ∂f/∂x negative at high rates.
	nonMono.Fit = polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.002, 0.003, 0, -1, 0}}
	ev = build(nonMono)
	if ev.coarse.diskMono {
		t.Fatal("non-monotone fit was verified monotone")
	}

	risingEnv := syntheticDiskProfile()
	risingEnv.Envelope = polyfit.Poly1D{Coeffs: []float64{100, 2}}
	ev = build(risingEnv)
	if ev.coarse.envMono {
		t.Fatal("increasing envelope was verified non-increasing")
	}
}

// TestSetBucketWidth pins the width semantics: default ⌈T/16⌉, explicit
// widths clamped to the series length, negative disables.
func TestSetBucketWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomLoadStateProblem(rng, 4, 50, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := ev.BucketWidth(); got != 4 { // ⌈50/16⌉
		t.Fatalf("default bucket width = %d, want 4", got)
	}
	if ev.coarse.nb != 13 { // ⌈50/4⌉
		t.Fatalf("default bucket count = %d, want 13", ev.coarse.nb)
	}
	ev.SetBucketWidth(7)
	if got := ev.BucketWidth(); got != 7 {
		t.Fatalf("explicit bucket width = %d, want 7", got)
	}
	ev.SetBucketWidth(1000)
	if got := ev.BucketWidth(); got != 50 {
		t.Fatalf("oversized bucket width = %d, want clamp to T=50", got)
	}
	if ev.coarse.nb != 1 {
		t.Fatalf("oversized width bucket count = %d, want 1", ev.coarse.nb)
	}
	ev.SetBucketWidth(-1)
	if ev.coarse != nil || ev.BucketWidth() != 0 {
		t.Fatal("negative width did not disable screening")
	}
	ev.SetBucketWidth(0)
	if got := ev.BucketWidth(); got != 4 {
		t.Fatalf("re-enabled bucket width = %d, want 4", got)
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
