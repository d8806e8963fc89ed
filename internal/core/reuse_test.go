package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"kairos/internal/greedy"
	"kairos/internal/model"
	units "kairos/internal/unit"
)

// constrainedProblem extends randomLoadStateProblem (replicas, SLAs, replica
// load scaling, optional disk model) with the rest of what Eval prices:
// pins, explicit anti-affinity pairs and machines of differing capacities.
func constrainedProblem(rng *rand.Rand, nW, T int, withDisk bool) *Problem {
	p := randomLoadStateProblem(rng, nW, T, withDisk)
	for i := range p.Workloads {
		if rng.Float64() < 0.15 {
			p.Workloads[i].PinTo = rng.Intn(4)
		}
	}
	for i := 0; i < nW/3; i++ {
		if a, b := rng.Intn(nW), rng.Intn(nW); a != b {
			p.AntiAffinity = append(p.AntiAffinity, [2]int{a, b})
		}
	}
	for j := range p.Machines {
		f := 0.6 + rng.Float64()
		p.Machines[j].CPUCapacity *= units.TargetCPU(f)
		p.Machines[j].RAMBytes *= units.Bytes(0.6 + rng.Float64())
		p.Machines[j].DiskWriteBps *= units.Bps(0.6 + rng.Float64())
	}
	return p
}

// TestEvalReuseMatchesFresh is the property test of Eval's reuse table: on
// a long random walk of single-unit perturbations — the DIRECT access
// pattern, including assignments outside [0,K) — an evaluator that keeps its
// table, one whose table is emptied before every call, a clone taken
// mid-walk and, periodically, a brand-new evaluator must agree on the
// objective's bits and on feasibility. The walk visits enough distinct
// (machine, member set) keys to double the table three times along the way,
// and the evaluator that keeps its table must have summed each exactly once.
func TestEvalReuseMatchesFresh(t *testing.T) {
	const steps = 12000
	for _, tc := range []struct {
		nW       int
		withDisk bool
	}{{14, false}, {14, true}, {70, false}, {70, true}} {
		rng := rand.New(rand.NewSource(int64(31 + tc.nW)))
		p := constrainedProblem(rng, tc.nW, 8, tc.withDisk)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.hasConflicts {
			t.Fatal("problem declares no conflict: the pair scan is not exercised")
		}
		ref := ev.Clone()
		var clone *Evaluator
		const K = 5
		assign := randomAssign(rng, ev, K)
		seen := map[string]bool{}
		for step := 0; step < steps; step++ {
			// One coordinate changes per sample; one value in seven is out of
			// range on either side.
			assign[rng.Intn(len(assign))] = rng.Intn(K+2) - 1

			got, gotFeas := ev.Eval(assign, K)
			if ref.reuse != nil {
				for i := range ref.reuse.slots {
					ref.reuse.slots[i].mach = 0
				}
				ref.reuse.used = 0
			}
			want, wantFeas := ref.Eval(assign, K)
			if math.Float64bits(got) != math.Float64bits(want) || gotFeas != wantFeas {
				t.Fatalf("nW=%d disk=%v step %d: reused Eval = (%v, %v), empty-table Eval = (%v, %v)",
					tc.nW, tc.withDisk, step, got, gotFeas, want, wantFeas)
			}
			if step%499 == 0 {
				fresh, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				if f, fFeas := fresh.Eval(assign, K); math.Float64bits(f) != math.Float64bits(got) || fFeas != gotFeas {
					t.Fatalf("nW=%d disk=%v step %d: reused Eval = (%v, %v), new evaluator = (%v, %v)",
						tc.nW, tc.withDisk, step, got, gotFeas, f, fFeas)
				}
			}
			if step == steps/3 {
				clone = ev.Clone()
				if clone.reuse != nil {
					t.Fatal("Clone kept its parent's reuse table — parallel DIRECT workers would race on it")
				}
			}
			if clone != nil {
				if c, cFeas := clone.Eval(assign, K); math.Float64bits(c) != math.Float64bits(want) || cFeas != wantFeas {
					t.Fatalf("nW=%d disk=%v step %d: clone Eval = (%v, %v), want (%v, %v)",
						tc.nW, tc.withDisk, step, c, cFeas, want, wantFeas)
				}
			}

			W := ev.reuse.words
			for j := 0; j < K; j++ {
				set := ev.reuse.sets[j*W : (j+1)*W]
				if slices.ContainsFunc(set, func(w uint64) bool { return w != 0 }) {
					seen[fmt.Sprint(j, set)] = true // Eval prices no empty machine
				}
			}
		}
		if clone.reuse == nil || clone.reuse == ev.reuse {
			t.Fatal("the clone did not grow a reuse table of its own")
		}
		if slots := len(ev.reuse.slots); slots < 8<<evalReuseBits {
			t.Fatalf("nW=%d disk=%v: the table holds %d slots after %d distinct keys, want at least three doublings of %d",
				tc.nW, tc.withDisk, slots, len(seen), 1<<evalReuseBits)
		}
		if priced, held := ev.stats.EvalPriced, ev.reuse.used; priced != len(seen) || held != len(seen) {
			t.Errorf("nW=%d disk=%v: %d distinct keys, but Eval summed %d machines and its table holds %d: a key was summed twice or lost",
				tc.nW, tc.withDisk, len(seen), priced, held)
		}
		if total := ev.stats.EvalPriced + ev.stats.EvalReused; ev.stats.EvalReused == 0 || total <= len(seen) {
			t.Errorf("nW=%d disk=%v: %d machines answered from the table of %d met", tc.nW, tc.withDisk, ev.stats.EvalReused, total)
		}
	}
}

// oneMemberSums is accumulateInto as one pass over the sums per member: the
// loop accumulate was before it took four members per pass, kept as the
// reference its sums must match bit for bit over each sum's length.
func oneMemberSums(ev *Evaluator, members []int, cpu, ram, ws, rate []float64) {
	for i, sum := range [][]float64{cpu, ram, ws, rate} {
		unit := [][][]float64{ev.cpu, ev.ram, ev.ws, ev.rate}[i]
		for t := range sum {
			sum[t] = 0
		}
		for _, u := range members {
			for t := range sum {
				sum[t] += unit[u][t]
			}
		}
	}
}

// TestAccumulateMatchesOneMemberLoop holds the four-member kernel to the
// one-member loop's bits on all four streams: member counts on either side
// of every multiple of four, horizons shorter than a pass is wide and values
// where a regrouped sum would show — signed zeros, subnormals, magnitudes
// that cancel or overflow, Inf and NaN. With
// flat RAM and working-set streams it sums those at step 0 alone and leaves
// the stale values past it as they were.
func TestAccumulateMatchesOneMemberLoop(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e308, -1e308, 1e-300, 1 << 53, -(1 << 53),
		math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3, -2.0 / 3}
	rng := rand.New(rand.NewSource(5))
	const nU = 97
	for _, T := range []int{1, 3, 288} {
		for _, flatStreams := range []bool{false, true} {
			ev := &Evaluator{p: &Problem{Disk: &model.DiskProfile{}}, T: T, flatRAM: flatStreams, flatWS: flatStreams}
			for i, streams := range []*[][]float64{&ev.cpu, &ev.ram, &ev.ws, &ev.rate} {
				flat := flatStreams && (i == 1 || i == 2)
				*streams = make([][]float64, nU)
				for u := range *streams {
					vals := make([]float64, T)
					for i := range vals {
						if vals[i] = rng.NormFloat64() * 1e3; rng.Intn(4) == 0 {
							vals[i] = special[rng.Intn(len(special))]
						}
						if flat {
							vals[i] = vals[0]
						}
					}
					(*streams)[u] = vals
				}
			}
			steps := [4]int{T, ev.ramSteps(), ev.wsSteps(), T}
			if flatStreams && steps != [4]int{T, 1, 1, T} {
				t.Fatalf("T=%d: flat streams summed over %v steps", T, steps)
			}
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 97} {
				members := rng.Perm(nU)[:n]
				sort.Ints(members)
				var got, want, stale [4][]float64
				for i := range got {
					// Stale sums: the kernel must clear them over its horizon
					// and leave them past it.
					got[i], want[i] = make([]float64, T), make([]float64, steps[i])
					for k := range got[i] {
						got[i][k] = rng.Float64()
					}
					stale[i] = append([]float64(nil), got[i]...)
				}
				ev.accumulateInto(members, got[0], got[1], got[2], got[3])
				oneMemberSums(ev, members, want[0], want[1], want[2], want[3])
				for i := range got {
					for k := range got[i] {
						g, w := got[i][k], stale[i][k]
						if k < steps[i] {
							w = want[i][k]
						}
						if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
							t.Fatalf("T=%d flat=%v members=%d stream %d step %d: kernel %v (%#x), want %v (%#x)",
								T, flatStreams, n, i, k, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

// referenceGreedyFits is the packer's feasibility check answered by the
// canonical scratch pricer: a re-sum of bin+item through serverEval per
// call, as GreedyFits computed it before it kept running sums.
func referenceGreedyFits(ev *Evaluator) greedy.FitsFunc {
	return func(bin []int, item int) bool {
		for _, b := range bin {
			if ev.conflicted(b, item) {
				return false
			}
		}
		members := append(append([]int(nil), bin...), item)
		return ev.serverEval(0, members).Violation == 0
	}
}

// TestGreedySeedMatchesBoundedPacking checks the once-per-evaluator greedy
// packing against the packer it stands in for: for every machine count K a
// solve can probe, greedySeed must return exactly the bins and verdict of
// greedy.MultiResource limited to K bins and checked by the canonical
// scratch pricer (referenceGreedyFits, which shares no code with GreedyFits'
// running sums) — at GOMAXPROCS 1 and with the per-resource packings on
// helpers — including on a problem whose packing fails at every K.
func TestGreedySeedMatchesBoundedPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	problems := []*Problem{
		randomLoadStateProblem(rng, 30, 12, false),
		randomLoadStateProblem(rng, 30, 12, true),
		constrainedProblem(rng, 24, 12, true),
	}
	// A workload that fits no empty machine: every packing fails.
	huge := randomLoadStateProblem(rng, 8, 12, false)
	huge.Workloads[3].RAMBytes = huge.Workloads[3].RAMBytes.Scale(100)
	problems = append(problems, huge)

	for pi, p := range problems {
		for _, procs := range []int{1, 3} {
			prev := runtime.GOMAXPROCS(procs)
			ev, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			packed := 0
			for K := 1; K <= len(p.Machines); K++ {
				want, wantOK, err := greedy.MultiResource(oracle.GreedyLoads(), referenceGreedyFits(oracle), K)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := ev.greedySeed(K)
				if ok != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					runtime.GOMAXPROCS(prev)
					t.Fatalf("problem %d GOMAXPROCS=%d K=%d: greedySeed = (%v, %v), bounded packing = (%v, %v)",
						pi, procs, K, got, ok, want, wantOK)
				}
				if ok {
					packed++
				}
			}
			runtime.GOMAXPROCS(prev)
			// The two plain problems must exercise both verdicts (some K too
			// small, some large enough); the last must never pack.
			if pi < 2 && (packed == 0 || packed == len(p.Machines)) {
				t.Errorf("problem %d: %d of %d machine counts packed, want some but not all", pi, packed, len(p.Machines))
			}
			if p == huge && packed > 0 {
				t.Errorf("problem %d: packed at %d machine counts, want none", pi, packed)
			}
		}
	}
}

// TestSearchReusesOnlyFinishedProbes checks the per-K memory of one Solve: a
// second run at a machine count the search has consumed starts from that
// probe's cold climbs — with SkipDirect it is the probe's answer for no
// evaluation at all — and continues its DIRECT search, while a probe cut
// short by cancellation, whose climbs and search stopped early, seeds
// neither.
func TestSearchReusesOnlyFinishedProbes(t *testing.T) {
	// One goroutine: pollCtx counts its polls unsynchronised.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := randomLoadStateProblem(rand.New(rand.NewSource(19)), 30, 24, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	const K = 12
	opt := SolveOptions{SkipDirect: true}
	newSearch := func(ctx context.Context, opt SolveOptions) *kSearch {
		return &kSearch{ev: ev.Clone(), ctx: ctx, opt: opt, cold: map[int][]climbed{}}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSearch(cancelled, opt)
	s.solve(K, false)
	if len(s.cold) != 0 {
		t.Fatalf("a cancelled probe seeded the reuse: %d machine counts kept", len(s.cold))
	}

	s = newSearch(context.Background(), opt)
	probe := s.solve(K, false)
	spent := s.ev.Fevals
	final := s.solve(K, true)
	if s.ev.Fevals != spent {
		t.Errorf("the second run at K=%d spent %d evaluations, want 0", K, s.ev.Fevals-spent)
	}
	if !reflect.DeepEqual(final, probe) {
		t.Errorf("the second run at K=%d returned a different plan than the probe it reuses", K)
	}
	probes := s.ev.stats.Probes
	if len(probes) != 2 || probes[0].Reused || !probes[1].Reused || probes[1].Fevals != 0 {
		t.Errorf("probe log = %+v, want a fresh run then a reused one of 0 evaluations", probes)
	}
	if st := s.ev.stats; st.ClimbsReused != st.Climbs || st.Climbs == 0 {
		t.Errorf("climbs run %d, reused %d, want every one reused once", st.Climbs, st.ClimbsReused)
	}

	// With DIRECT the cold climbs are reused and the probe's search is
	// continued: the plan equals a from-scratch run at the final run's budget
	// (twice the probe's), for the probe's samples fewer. The probe must be
	// feasible for its search to be the kept one.
	opt = SolveOptions{DirectFevals: 301}
	s = newSearch(context.Background(), opt)
	if probe = s.solve(K, false); !probe.feas {
		t.Fatalf("the probe at K=%d is infeasible: its search is not kept", K)
	}
	final = s.solve(K, true)
	fresh := ev.Clone()
	scratch, _, _ := fresh.solveK(context.Background(), K, opt, true, kRun{})
	if !reflect.DeepEqual(final, scratch) {
		t.Errorf("polish run on the resumed search = (obj %v, feas %v), from scratch (obj %v, feas %v)", final.obj, final.feas, scratch.obj, scratch.feas)
	}
	probes = s.ev.stats.Probes
	if probes[0].Resumed != 0 || probes[1].Resumed != 301 {
		t.Errorf("resumed samples = %d then %d, want 0 then the probe's 301", probes[0].Resumed, probes[1].Resumed)
	}
	// What the final run saved is the probe's samples and the cold climbs.
	coldFevals := 0
	{
		e := ev.Clone()
		e.solveK(context.Background(), K, SolveOptions{SkipDirect: true}, false, kRun{})
		coldFevals = e.Fevals
	}
	if got, want := probes[1].Fevals, fresh.Fevals-301-coldFevals; got != want {
		t.Errorf("the resumed run spent %d evaluations, want the from-scratch %d minus 301 samples and %d on cold climbs = %d",
			got, fresh.Fevals, coldFevals, want)
	}

	// A probe cancelled inside DIRECT — its cold climbs finished and feasible,
	// its search stopped at the third iteration — is never kept.
	polls := &pollCtx{Context: context.Background(), left: math.MaxInt}
	newSearch(polls, SolveOptions{SkipDirect: true}).solve(K, false)
	polls.left = (math.MaxInt - polls.left) + 3
	s = newSearch(polls, SolveOptions{DirectFevals: 5000})
	if probe = s.solve(K, false); !probe.feas || s.ev.Fevals >= 5000 {
		t.Fatalf("probe feasible=%v after %d evaluations: want its climbs finished and its DIRECT run cancelled", probe.feas, s.ev.Fevals)
	}
	if s.direct != nil || len(s.cold) != 0 {
		t.Fatalf("a probe cancelled inside DIRECT seeded the reuse (search kept: %v, %d machine counts)", s.direct != nil, len(s.cold))
	}
}

// TestSolveSumsEachMachineOnce runs whole sequential solves with DIRECT and
// checks Eval's count against its table: the machines it summed are exactly
// the distinct (machine, member set) keys it met — none summed twice because
// the table lost it, none stored twice because a scan missed it — and the
// final run continued the search of the probe that found K'. At GOMAXPROCS
// 1: a speculated probe or a climb on a helper prices on a clone's table,
// which the solve's own never sees.
func TestSolveSumsEachMachineOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, withDisk := range []bool{false, true} {
		p := randomLoadStateProblem(rand.New(rand.NewSource(19)), 30, 24, withDisk)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ev.solve(context.Background(), SolveOptions{DirectFevals: 1500}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		rt := ev.reuse
		distinct := map[string]bool{}
		for i, m := range rt.slots {
			if m.mach != 0 {
				distinct[fmt.Sprint(m.mach, rt.keys[i*rt.words:(i+1)*rt.words])] = true
			}
		}
		if st := sol.Stats; st.EvalPriced != len(distinct) || st.EvalReused == 0 {
			t.Errorf("disk=%v: Eval summed %d machines (%d answered from the table), which holds %d distinct keys",
				withDisk, st.EvalPriced, st.EvalReused, len(distinct))
		}
		if len(rt.slots) <= 1<<evalReuseBits {
			t.Errorf("disk=%v: the table never grew (%d keys): the solve is too small to tell a table that forgets", withDisk, len(distinct))
		}
		probes := sol.Stats.Probes
		if last := probes[len(probes)-1]; len(probes) < 2 || last.Resumed < 1499 {
			t.Errorf("disk=%v: probes %+v: the final run did not continue a probe's search", withDisk, probes)
		}
	}
}

// pollCtx is a context that reports cancellation once Err has been polled
// left times, so a test can cancel a solve at an exact point of its course.
type pollCtx struct {
	context.Context
	left int
}

func (c *pollCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// BenchmarkGreedySeedPerSolve times the greedy seeding of one cold solve on
// a 97-workload day: the upper bound on K, then a seed for every machine
// count the search may probe below it.
func BenchmarkGreedySeedPerSolve(b *testing.B) {
	p := randomLoadStateProblem(rand.New(rand.NewSource(97)), 97, 288, false)
	for i := range p.Workloads {
		p.Workloads[i].SLA = nil // a tight SLA can fit no machine: nothing to pack
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		b.Fatal(err)
	}
	lo := ev.FractionalLowerBound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.packing = nil // a new solve starts from a new evaluator
		bins, ok := ev.greedySeed(len(p.Machines))
		if !ok {
			b.Fatal("greedy packing failed")
		}
		for K := lo; K <= len(bins); K++ {
			ev.greedySeed(K)
		}
	}
}
