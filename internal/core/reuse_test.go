package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kairos/internal/greedy"
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
		p.Machines[j].CPUCapacity *= f
		p.Machines[j].RAMBytes *= 0.6 + rng.Float64()
		p.Machines[j].DiskWriteBps *= 0.6 + rng.Float64()
	}
	return p
}

// TestEvalReuseMatchesFresh is the property test of Eval's reuse table: on
// a long random walk of single-unit perturbations — the DIRECT access
// pattern, including assignments outside [0,K) — an evaluator that keeps its
// table, one whose table is emptied before every call, a clone taken
// mid-walk and, periodically, a brand-new evaluator must agree on the
// objective's bits and on feasibility. The walk visits more distinct
// (machine, member set) keys than twice the table's slots, so entries are
// evicted and re-priced along the way.
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
				seen[fmt.Sprint(j, set)] = true
			}
		}
		if clone.reuse == nil || clone.reuse == ev.reuse {
			t.Fatal("the clone did not grow a reuse table of its own")
		}
		if slots := len(ev.reuse.slots); len(seen) <= 2*slots {
			t.Fatalf("nW=%d disk=%v: walk visited %d distinct keys, want more than twice the %d slots so evictions are certain",
				tc.nW, tc.withDisk, len(seen), slots)
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
// running sums) — sequentially and with the per-resource packings run in
// parallel — including on a problem whose packing fails at every K.
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
		for _, workers := range []int{1, 3} {
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
				got, ok := ev.greedySeed(K, workers)
				if ok != wantOK || (ok && !reflect.DeepEqual(got, want)) {
					t.Fatalf("problem %d workers=%d K=%d: greedySeed = (%v, %v), bounded packing = (%v, %v)",
						pi, workers, K, got, ok, want, wantOK)
				}
				if ok {
					packed++
				}
			}
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
// evaluation at all — while a probe cut short by cancellation, whose climbs
// stopped early, never seeds it.
func TestSearchReusesOnlyFinishedProbes(t *testing.T) {
	p := randomLoadStateProblem(rand.New(rand.NewSource(19)), 30, 24, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	const K = 12
	opt := SolveOptions{SkipDirect: true}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s := &kSearch{ev: ev.Clone(), ctx: cancelled, opt: opt, cold: map[int][]climbed{}}
	s.solve(K, false)
	if len(s.cold) != 0 {
		t.Fatalf("a cancelled probe seeded the reuse: %d machine counts kept", len(s.cold))
	}

	s = &kSearch{ev: ev.Clone(), ctx: context.Background(), opt: opt, cold: map[int][]climbed{}}
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

	// With DIRECT the cold climbs are reused and the DIRECT run is not: the
	// plan equals a from-scratch run at the polish budget.
	opt = SolveOptions{DirectFevals: 300, PolishFevals: 600}
	s = &kSearch{ev: ev.Clone(), ctx: context.Background(), opt: opt, cold: map[int][]climbed{}}
	s.solve(K, false)
	final = s.solve(K, true)
	scratch, _ := ev.Clone().solveK(context.Background(), K, opt, true, nil)
	if !reflect.DeepEqual(final, scratch) {
		t.Errorf("polish run on reused climbs = (obj %v, feas %v), from scratch (obj %v, feas %v)", final.obj, final.feas, scratch.obj, scratch.feas)
	}
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
		bins, ok := ev.greedySeed(len(p.Machines), 1)
		if !ok {
			b.Fatal("greedy packing failed")
		}
		for K := lo; K <= len(bins); K++ {
			ev.greedySeed(K, 1)
		}
	}
}
