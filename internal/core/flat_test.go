package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kairos/internal/model"
	"kairos/internal/polyfit"
	"kairos/internal/series"
	units "kairos/internal/unit"
)

// fullHorizon returns a clone of ev that folds and scans every stream over
// all T steps, flat or not: the reference a flat problem's pricing must
// equal bit for bit.
func fullHorizon(ev *Evaluator) *Evaluator {
	full := ev.Clone()
	full.flatRAM, full.flatWS = false, false
	return full
}

// FlatStreams reports whether NewEvaluator prices p's RAM and working-set
// streams at one step, for the external tests of the paper's fleets.
func FlatStreams(t *testing.T, p *Problem) (ram, ws bool) {
	t.Helper()
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	return ev.flatRAM, ev.flatWS
}

// sameBits reports whether a and b hold the same bits, NaNs of any payload
// counting as one.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// flatProblem is constrainedProblem — replicas, SLAs, pins, anti-affinity,
// machines of differing capacities — with a time-varying update rate beside
// the flat RAM and working set, so the envelope and the disk peak change
// from step to step while the working set does not. env chooses whether the
// disk model carries its saturation envelope.
func flatProblem(rng *rand.Rand, nW, T int, withDisk, env bool) *Problem {
	p := constrainedProblem(rng, nW, T, withDisk)
	if withDisk {
		p.Disk.HasEnvelope = env
		for i := range p.Workloads {
			r := p.Workloads[i].UpdateRate.Values
			base, phase := r[0], rng.Float64()*2*math.Pi
			for t := range r {
				r[t] = base * (1 + 0.8*math.Sin(7*2*math.Pi*float64(t)/float64(T)+phase))
			}
		}
	}
	return p
}

// TestFlatStreamsPriceAsFullHorizon holds every pricer of a problem whose
// RAM and working set are flat to the same evaluator forced to the full
// horizon, bit for bit: Eval, ServerContrib, Report, GreedyFits, and on a
// LoadState walked by every mutator (Move, Swap, deferred moves with their
// rollback, Fold) its canonical sums at all T steps, sample and
// contributions, PriceAdd, PriceRemove, PriceSwap, CanPlace and the screens.
// Then a problem with one unit off flat, and one whose RAM mixes +0 and −0,
// must fall back to the full horizon.
func TestFlatStreamsPriceAsFullHorizon(t *testing.T) {
	for _, tc := range []struct {
		name          string
		withDisk, env bool
	}{{"cpu+ram", false, false}, {"disk-model", true, false}, {"disk-model+envelope", true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			const T = 40
			p := flatProblem(rng, 24, T, tc.withDisk, tc.env)
			ev, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			if !ev.flatRAM || ev.flatWS != tc.withDisk || ev.ramSteps() != 1 {
				t.Fatalf("flat RAM %v, flat working set %v: the problem is not priced at one step", ev.flatRAM, ev.flatWS)
			}
			if !ev.hasConflicts {
				t.Fatal("problem declares no conflict: the pair counts are not exercised")
			}
			full := fullHorizon(ev)
			const K = 6
			checkFlatEval(t, ev, full, rng, K)
			checkFlatGreedy(t, ev, full, rng)

			seed := rng.Int63()
			rngF, rngS := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			assign := randomAssign(rng, ev, K)
			ls, lf := NewLoadState(ev, assign, K), NewLoadState(full, assign, K)
			var violated bool
			for iter := 0; iter < 120; iter++ {
				checkFlatLoadState(t, iter, ls, lf)
				for j := 0; j < ls.K(); j++ {
					violated = violated || ls.Contrib(j) > penaltyWeight
				}
				mutateRandomly(rngF, ls)
				mutateRandomly(rngS, lf)
			}
			if ls.K() == K {
				t.Fatal("no Fold was exercised")
			}
			if !violated {
				t.Fatal("no machine of the walk violated a constraint: the violation terms are not exercised")
			}
		})
	}

	rng := rand.New(rand.NewSource(93))
	for _, tc := range []struct {
		name  string
		spoil func(p *Problem)
	}{
		{"one unit's RAM off flat", func(p *Problem) { p.Workloads[5].RAMBytes.Values[17] *= 1.5 }},
		{"one unit's working set off flat", func(p *Problem) { p.Workloads[2].WSBytes.Values[3] *= 0.5 }},
		{"RAM mixing +0 and -0", func(p *Problem) {
			r := p.Workloads[4].RAMBytes.Values
			for i := range r {
				r[i] = 0
			}
			r[9] = math.Copysign(0, -1)
		}},
	} {
		p := flatProblem(rng, 12, 24, true, true)
		tc.spoil(p)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.flatRAM && ev.flatWS {
			t.Fatalf("%s: the problem is still priced at one step", tc.name)
		}
		full := fullHorizon(ev)
		checkFlatEval(t, ev, full, rng, 5)
		assign := randomAssign(rng, ev, 5)
		checkFlatLoadState(t, 0, NewLoadState(ev, assign, 5), NewLoadState(full, assign, 5))
	}
}

// checkFlatEval compares Eval, ServerContrib and Report on random
// assignments over K machines, out-of-range units among them.
func checkFlatEval(t *testing.T, ev, full *Evaluator, rng *rand.Rand, K int) {
	t.Helper()
	for i := 0; i < 60; i++ {
		assign := randomAssign(rng, ev, K)
		if i%5 == 0 {
			assign[rng.Intn(len(assign))] = K
		}
		got, gotFeas := ev.Eval(assign, K)
		want, wantFeas := full.Eval(assign, K)
		if !sameBits(got, want) || gotFeas != wantFeas {
			t.Fatalf("Eval = (%v, %v), full horizon (%v, %v)", got, gotFeas, want, wantFeas)
		}
		rep, repFull := ev.Report(assign, K), full.Report(assign, K)
		for j := range rep {
			g, w := rep[j], repFull[j]
			if g.Used != w.Used || !sameBits(g.RAMPeak, w.RAMPeak) || !sameBits(g.CPUPeak, w.CPUPeak) ||
				!sameBits(g.DiskPeak, w.DiskPeak) || !sameBits(g.Violation, w.Violation) || !sameBits(g.NormLoad, w.NormLoad) {
				t.Fatalf("Report machine %d = %+v, full horizon %+v", j, g, w)
			}
			for s := range g.CPU {
				if !sameBits(g.CPU[s], w.CPU[s]) {
					t.Fatalf("Report machine %d CPU step %d = %v, full horizon %v", j, s, g.CPU[s], w.CPU[s])
				}
			}
		}
		for j := 0; j < K; j++ {
			var members []int
			for u, m := range assign {
				if m == j {
					members = append(members, u)
				}
			}
			if g, w := ev.ServerContrib(j, members), full.ServerContrib(j, members); !sameBits(g, w) {
				t.Fatalf("ServerContrib machine %d = %v, full horizon %v", j, g, w)
			}
		}
	}
}

// checkFlatGreedy compares GreedyFits on random bins grown one item at a
// time, each bin a prefix of the last so the running sums are extended.
func checkFlatGreedy(t *testing.T, ev, full *Evaluator, rng *rand.Rand) {
	t.Helper()
	fits, fitsFull := ev.Clone().GreedyFits(), full.Clone().GreedyFits()
	var fitting int
	for i := 0; i < 20; i++ {
		order := rng.Perm(ev.NumUnits())
		for n := 0; n < len(order)-1; n++ {
			bin, item := order[:n], order[n]
			got, want := fits(bin, item), fitsFull(bin, item)
			if got != want {
				t.Fatalf("GreedyFits(%v, %d) = %v, full horizon %v", bin, item, got, want)
			}
			if got {
				fitting++
			}
		}
	}
	if fitting == 0 {
		t.Fatal("no bin fitted its item: GreedyFits' sums are not exercised")
	}
}

// checkFlatLoadState compares two LoadStates over one assignment, one on the
// flat evaluator and one on its full-horizon clone.
func checkFlatLoadState(t *testing.T, iter int, ls, lf *LoadState) {
	t.Helper()
	if ls.K() != lf.K() {
		t.Fatalf("iter %d: K %d, full horizon %d", iter, ls.K(), lf.K())
	}
	for j := 0; j < ls.K(); j++ {
		got := [4][]float64{ls.cpu[j], ls.ram[j], ls.ws[j], ls.rate[j]}
		want := [4][]float64{lf.cpu[j], lf.ram[j], lf.ws[j], lf.rate[j]}
		for s := range got {
			for k := range want[s] {
				if !sameBits(got[s][k], want[s][k]) {
					t.Fatalf("iter %d: machine %d stream %d step %d holds %v, full horizon %v", iter, j, s, k, got[s][k], want[s][k])
				}
			}
		}
		if !sameBits(ls.Contrib(j), lf.Contrib(j)) || !sameBits(ls.NormLoad(j), lf.NormLoad(j)) {
			t.Fatalf("iter %d: machine %d contrib %v, full horizon %v", iter, j, ls.Contrib(j), lf.Contrib(j))
		}
		gs, ws := ls.sampleOf(j), lf.sampleOf(j)
		for i := range ws {
			if gs[i] != ws[i] {
				t.Fatalf("iter %d: machine %d sample %v, full horizon %v", iter, j, gs, ws)
			}
		}
	}
	nU := ls.NumUnits()
	for u := 0; u < nU; u++ {
		if g, w := ls.PriceRemove(u), lf.PriceRemove(u); !sameBits(g, w) {
			t.Fatalf("iter %d: PriceRemove(%d) = %v, full horizon %v", iter, u, g, w)
		}
		if g, w := ls.boundRemove(u), lf.boundRemove(u); !sameBits(g, w) {
			t.Fatalf("iter %d: boundRemove(%d) = %v, full horizon %v", iter, u, g, w)
		}
		for j := 0; j < ls.K(); j++ {
			if g, w := ls.PriceAdd(u, j), lf.PriceAdd(u, j); !sameBits(g, w) {
				t.Fatalf("iter %d: PriceAdd(%d, %d) = %v, full horizon %v", iter, u, j, g, w)
			}
			if g, w := ls.CanPlace(u, j), lf.CanPlace(u, j); g != w {
				t.Fatalf("iter %d: CanPlace(%d, %d) = %v, full horizon %v", iter, u, j, g, w)
			}
			if g, w := ls.ScreenAdd(u, j), lf.ScreenAdd(u, j); !sameBits(g, w) {
				t.Fatalf("iter %d: ScreenAdd(%d, %d) = %v, full horizon %v", iter, u, j, g, w)
			}
			if ls.Assign(u) != j {
				if g, w := ls.screenAddViol(u, j), lf.screenAddViol(u, j); !sameBits(g, w) {
					t.Fatalf("iter %d: screenAddViol(%d, %d) = %v, full horizon %v", iter, u, j, g, w)
				}
			}
		}
		for v := u + 1; v < nU; v++ {
			if ls.Assign(u) == ls.Assign(v) {
				continue
			}
			gu, gv := ls.PriceSwap(u, v)
			wu, wv := lf.PriceSwap(u, v)
			if !sameBits(gu, wu) || !sameBits(gv, wv) {
				t.Fatalf("iter %d: PriceSwap(%d, %d) = (%v, %v), full horizon (%v, %v)", iter, u, v, gu, gv, wu, wv)
			}
			gu, gv = ls.ScreenSwap(u, v)
			wu, wv = lf.ScreenSwap(u, v)
			if !sameBits(gu, wu) || !sameBits(gv, wv) {
				t.Fatalf("iter %d: ScreenSwap(%d, %d) = (%v, %v), full horizon (%v, %v)", iter, u, v, gu, gv, wu, wv)
			}
		}
		caps, capsFull := ls.capSides(u), lf.capSides(u)
		for j := range caps {
			if caps[j] != capsFull[j] {
				t.Fatalf("iter %d: capacity stage of unit %d on machine %d %+v, full horizon %+v", iter, u, j, caps[j], capsFull[j])
			}
		}
	}
}

// TestEvalReuseAcrossEqualCapacity prices member sets on a fleet of two
// capacity classes, alternating machines, that differ in one cap — CPU,
// RAM, or the disk budget under a disk model: a set priced on machine 0 is
// answered from the table on machine 2, of equal caps, and priced afresh on
// machine 1; and on a random walk Eval agrees with a new evaluator bit for
// bit.
func TestEvalReuseAcrossEqualCapacity(t *testing.T) {
	for ci, tc := range []struct {
		withDisk bool
		shrink   func(m *Machine)
	}{
		{false, func(m *Machine) { m.CPUCapacity *= units.TargetCPU(0.8) }},
		{false, func(m *Machine) { m.RAMBytes *= units.Bytes(0.8) }},
		{true, func(m *Machine) { m.DiskWriteBps *= units.Bps(0.8) }},
	} {
		rng := rand.New(rand.NewSource(97))
		p := randomLoadStateProblem(rng, 10, 24, tc.withDisk)
		for j := range p.Machines {
			if j%2 == 1 {
				tc.shrink(&p.Machines[j])
			}
		}
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range ev.capClass {
			if int(c) != j%2 {
				t.Fatalf("case %d: machine %d in capacity class %d, want %d", ci, j, c, j%2)
			}
		}

		// Units 0..3 on the probed machine, the rest on machine 3 (class
		// 1): the first Eval sums both sets, then the four units are found
		// on machine 2 and summed afresh on machine 1.
		const K = 4
		for _, step := range []struct{ j, priced int }{{0, 2}, {2, 0}, {1, 1}} {
			assign := make([]int, ev.NumUnits())
			for u := range assign {
				if assign[u] = K - 1; u < 4 {
					assign[u] = step.j
				}
			}
			before := ev.stats
			got, gotFeas := ev.Eval(assign, K)
			fresh, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			if want, wantFeas := fresh.Eval(assign, K); !sameBits(got, want) || gotFeas != wantFeas {
				t.Fatalf("case %d machine %d: Eval = (%v, %v), new evaluator (%v, %v)", ci, step.j, got, gotFeas, want, wantFeas)
			}
			if priced, reused := ev.stats.EvalPriced-before.EvalPriced, ev.stats.EvalReused-before.EvalReused; priced != step.priced || priced+reused != 2 {
				t.Fatalf("case %d: units 0-3 on machine %d: Eval summed %d machines and found %d, want %d summed of 2",
					ci, step.j, priced, reused, step.priced)
			}
		}

		assign := randomAssign(rng, ev, K)
		for step := 0; step < 400; step++ {
			assign[rng.Intn(len(assign))] = rng.Intn(K)
			got, gotFeas := ev.Eval(assign, K)
			fresh, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			if want, wantFeas := fresh.Eval(assign, K); !sameBits(got, want) || gotFeas != wantFeas {
				t.Fatalf("case %d step %d: Eval = (%v, %v), new evaluator (%v, %v)", ci, step, got, gotFeas, want, wantFeas)
			}
		}
	}
}

// allocCase is one shape the zero-allocation tests run a flat problem in:
// with or without the disk model, priced at its one-step horizon or forced
// to the full one.
type allocCase struct{ withDisk, full bool }

var allocCases = []allocCase{{false, false}, {false, true}, {true, false}, {true, true}}

// evaluator builds p's evaluator for the case. p's RAM and working set must
// be flat.
func (c allocCase) evaluator(t *testing.T, p *Problem) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.flatRAM || ev.flatWS != (p.Disk != nil) {
		t.Fatal("the problem's RAM and working set are not priced flat")
	}
	if c.full {
		ev = fullHorizon(ev)
	}
	return ev
}

// TestEnvelopeTermPerStep holds the saturation envelope's violation to its
// per-step definition on one machine — the rate's excess over
// MaxRowsPerSec of that step's working set, over the envelope floored at
// envRateFloor, over T, summed in step order — with a working set that
// varies (the envelope read at every step) and a flat one (read once).
func TestEnvelopeTermPerStep(t *testing.T) {
	start, step := time.Unix(0, 0), 5*time.Minute
	for _, tc := range []struct {
		name     string
		ws, rate []float64
	}{
		{"varying working set", []float64{1000e6, 2000e6, 4000e6, 5000e6, 6500e6}, []float64{4000, 4000, 4000, 4000, 4000}},
		{"flat working set", []float64{4000e6, 4000e6, 4000e6, 4000e6, 4000e6}, []float64{1000, 3500, 2000, 5000, 3001}},
	} {
		T := len(tc.ws)
		p := &Problem{
			Workloads: []Workload{{
				Name:       "w0",
				CPU:        series.Constant(start, step, T, 0.1),
				RAMBytes:   series.Constant(start, step, T, 1e9),
				WSBytes:    series.New(start, step, tc.ws),
				UpdateRate: series.New(start, step, tc.rate),
				PinTo:      -1,
			}},
			Machines: []Machine{{Name: "m0", CPUCapacity: 1, RAMBytes: 64e9, DiskWriteBps: 1e12}},
			Disk: &model.DiskProfile{
				// A zero write fit isolates the envelope term.
				Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0, 0, 0, 0, 0, 0}},
				Envelope:    polyfit.Poly1D{Coeffs: []float64{9000, -1.5}},
				HasEnvelope: true,
				WSMinMB:     100,
				WSMaxMB:     100000,
			},
		}
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := tc.name == "flat working set"; ev.flatWS != want {
			t.Fatalf("%s: flat working set %v, want %v", tc.name, ev.flatWS, want)
		}
		var want float64
		for i := range tc.ws {
			maxRate := p.Disk.MaxRowsPerSec(tc.ws[i])
			if tc.rate[i] > maxRate {
				den := math.Max(maxRate, envRateFloor)
				want += (tc.rate[i] - maxRate) / den / float64(T)
			}
		}
		if got := ev.serverEval(0, []int{0}).Violation; !sameBits(got, want) || want <= 0 {
			t.Fatalf("%s: violation %v, per-step definition %v", tc.name, got, want)
		}
	}
}

// TestAbsentStreamsShareOneZeroRow: a working-set or update-rate stream no
// workload carries is one shared zero row for every unit, and a solve over
// it is the solve over explicit all-zero series, bit for bit; a stream one
// workload carries gets a row per unit.
func TestAbsentStreamsShareOneZeroRow(t *testing.T) {
	p := randomLoadStateProblem(rand.New(rand.NewSource(56)), 12, 24, false)
	zeros := *p
	zeros.Workloads = append([]Workload(nil), p.Workloads...)
	for i := range p.Workloads {
		p.Workloads[i].WSBytes, p.Workloads[i].UpdateRate = nil, nil
		w := &zeros.Workloads[i]
		w.WSBytes = series.New(w.CPU.Start, w.CPU.Step, make([]float64, w.CPU.Len()))
		w.UpdateRate = series.New(w.CPU.Start, w.CPU.Step, make([]float64, w.CPU.Len()))
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	for u := range ev.ws {
		if &ev.ws[u][0] != &ev.ws[0][0] || &ev.rate[u][0] != &ev.rate[0][0] || len(ev.ws[u]) != ev.T {
			t.Fatalf("unit %d: absent streams do not share one row of %d steps", u, ev.T)
		}
	}
	for t2, v := range ev.ws[0] {
		if v != 0 || ev.rate[0][t2] != 0 {
			t.Fatalf("step %d of the shared row is %v / %v, not zero", t2, v, ev.rate[0][t2])
		}
	}
	opt := DefaultSolveOptions()
	opt.SkipDirect = true
	a, err := Solve(context.Background(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), &zeros, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K || math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.Fevals != b.Fevals || !slices.Equal(a.Assign, b.Assign) {
		t.Fatalf("absent streams solve to K %d, objective %v, %d fevals; explicit zeros to K %d, %v, %d", a.K, a.Objective, a.Fevals, b.K, b.Objective, b.Fevals)
	}
	one := *p
	one.Workloads = append([]Workload(nil), p.Workloads...)
	one.Workloads[3].WSBytes = zeros.Workloads[3].WSBytes
	ev, err = NewEvaluator(&one)
	if err != nil {
		t.Fatal(err)
	}
	if &ev.ws[0][0] == &ev.ws[1][0] {
		t.Fatal("a stream one workload carries shares a row across units")
	}
}
