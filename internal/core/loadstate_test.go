package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"kairos/internal/floats"
	"kairos/internal/model"
	"kairos/internal/polyfit"
	"kairos/internal/series"
)

// syntheticDiskProfile builds a hand-written disk model so the LoadState
// tests can exercise the non-linear disk pricing (including the envelope
// constraint) without running the simulated profiler sweep.
func syntheticDiskProfile() *model.DiskProfile {
	return &model.DiskProfile{
		// write MB/s ≈ 0.5 + 0.002·wsMB + 0.003·rate (basis order: 1, x, y,
		// x², xy, y² with x = wsMB, y = rows/sec).
		Fit: polyfit.Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.002, 0.003, 0, 0, 0}},
		// Saturation envelope: max sustainable rate falls with working set.
		Envelope:    polyfit.Poly1D{Coeffs: []float64{9000, -1.5}},
		HasEnvelope: true,
		WSMinMB:     100,
		WSMaxMB:     100000,
	}
}

// randomLoadStateProblem builds a seeded problem exercising every pricing
// feature: time-varying CPU, replicas (automatic anti-affinity), latency
// SLAs, replica load scaling and optionally the disk model.
func randomLoadStateProblem(rng *rand.Rand, nW, T int, withDisk bool) *Problem {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	var wls []Workload
	for i := 0; i < nW; i++ {
		base := 0.05 + rng.Float64()*0.3
		amp := rng.Float64() * 0.1
		phase := rng.Float64() * 2 * math.Pi
		cpu := series.FromFunc(start, step, T, func(_ time.Time, t int) float64 {
			return base + amp*math.Sin(2*math.Pi*float64(t)/float64(T)+phase)
		})
		w := Workload{
			Name:     fmt.Sprintf("w%d", i),
			CPU:      cpu,
			RAMBytes: series.Constant(start, step, T, (0.5+rng.Float64()*4)*1e9),
			PinTo:    -1,
		}
		if withDisk {
			w.WSBytes = series.Constant(start, step, T, (0.2+rng.Float64())*1e9)
			w.UpdateRate = series.Constant(start, step, T, 500+rng.Float64()*2500)
		}
		if rng.Float64() < 0.3 {
			w.Replicas = 2
			if rng.Float64() < 0.5 {
				w.ReplicaLoadScale = []float64{1, 0.4 + rng.Float64()*0.5}
			}
		}
		if rng.Float64() < 0.2 {
			w.SLA = &LatencySLA{MaxSlowdown: 1.5 + rng.Float64()*2}
		}
		wls = append(wls, w)
	}
	ms := make([]Machine, nW+2)
	for j := range ms {
		ms[j] = Machine{
			Name:         fmt.Sprintf("m%d", j),
			CPUCapacity:  1,
			RAMBytes:     24e9,
			DiskWriteBps: 40e6,
			Headroom:     0.05,
		}
	}
	p := &Problem{Workloads: wls, Machines: ms}
	if withDisk {
		p.Disk = syntheticDiskProfile()
	}
	return p
}

// membersCopyWith returns a copy of machine j's member list with u appended
// (the canonical shape PriceAdd prices).
func membersCopyWith(ls *LoadState, j, u int) []int {
	return append(append([]int(nil), ls.Members(j)...), u)
}

// checkCanonical asserts every machine's cached contribution equals the
// canonical scratch pricer on the same member list, bit for bit — the
// re-materialization invariant that keeps rounding drift out of the state.
func checkCanonical(t *testing.T, ev *Evaluator, ls *LoadState) {
	t.Helper()
	for j := 0; j < ls.K(); j++ {
		members := append([]int(nil), ls.Members(j)...)
		want := ev.ServerContrib(j, members)
		if got := ls.Contrib(j); !floats.Same(got, want) {
			t.Fatalf("machine %d contrib = %v, canonical %v", j, got, want)
		}
	}
}

// relClose reports approximate equality with a relative tolerance — used
// only for PriceRemove, whose subtractive sums may differ from a canonical
// re-sum in the last ulp.
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestLoadStateMatchesCanonicalPricing drives randomized add/remove/move
// sequences and cross-checks every incremental price against the canonical
// scratch evaluator: PriceAdd and CanPlace must match bit-for-bit, and
// PriceRemove within rounding. Runs under -race in CI.
func TestLoadStateMatchesCanonicalPricing(t *testing.T) {
	for _, withDisk := range []bool{false, true} {
		name := "cpu+ram"
		if withDisk {
			name = "with-disk-model"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			trials := 4
			ops := 200
			if testing.Short() {
				trials, ops = 2, 60
			}
			for trial := 0; trial < trials; trial++ {
				p := randomLoadStateProblem(rng, 8+rng.Intn(6), 24, withDisk)
				ev, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				nU := ev.NumUnits()
				K := 4 + rng.Intn(3)
				assign := make([]int, nU)
				for u := range assign {
					assign[u] = rng.Intn(K)
				}
				ls := NewLoadState(ev, assign, K)
				checkCanonical(t, ev, ls)
				for op := 0; op < ops; op++ {
					u := rng.Intn(nU)
					j := rng.Intn(K)
					from := ls.Assign(u)

					if j != from {
						withU := membersCopyWith(ls, j, u)
						if got, want := ls.PriceAdd(u, j), ev.ServerContrib(j, withU); !floats.Same(got, want) {
							t.Fatalf("trial %d op %d: PriceAdd(%d,%d) = %v, canonical %v", trial, op, u, j, got, want)
						}
						if got, want := ls.CanPlace(u, j), ev.FitsOneMachine(j, withU); got != want {
							t.Fatalf("trial %d op %d: CanPlace(%d,%d) = %v, FitsOneMachine %v", trial, op, u, j, got, want)
						}
					} else {
						// Pricing a unit onto its own machine must not
						// double-count it.
						if got, want := ls.PriceAdd(u, j), ls.Contrib(j); !floats.Same(got, want) {
							t.Fatalf("trial %d op %d: self PriceAdd(%d,%d) = %v, contrib %v", trial, op, u, j, got, want)
						}
						members := append([]int(nil), ls.Members(j)...)
						if got, want := ls.CanPlace(u, j), ev.FitsOneMachine(j, members); got != want {
							t.Fatalf("trial %d op %d: self CanPlace(%d,%d) = %v, FitsOneMachine %v", trial, op, u, j, got, want)
						}
					}

					var without []int
					for _, x := range ls.Members(from) {
						if x != u {
							without = append(without, x)
						}
					}
					if got, want := ls.PriceRemove(u), ev.ServerContrib(from, without); !relClose(got, want, 1e-9) {
						t.Fatalf("trial %d op %d: PriceRemove(%d) = %v, canonical %v", trial, op, u, got, want)
					}

					if op%2 == 0 && j != from {
						ls.Move(u, j)
						if op%10 == 0 {
							checkCanonical(t, ev, ls)
						}
					}
				}
				checkCanonical(t, ev, ls)
				// The final state's assignment round-trips through the
				// canonical Eval without penalty surprises: every unit is
				// in range, so feasibility only reflects real violations.
				got := ls.Assignment()
				for u, j := range got {
					if j < 0 || j >= K {
						t.Fatalf("unit %d left out of range: %d", u, j)
					}
				}
			}
		})
	}
}

// TestLoadStateSumsStayCanonical: after every mutator — Move, whose
// destination adds the unit's demand to its sums instead of re-summing them,
// Swap, reduceK's deferred trial moves with their rollback, and the trial
// moves and Fold of a successful one — every machine's sums are
// accumulateInto over its member list, bit for bit, with and without the
// disk streams. Member lists run past accumulate2's four-member step.
func TestLoadStateSumsStayCanonical(t *testing.T) {
	for _, withDisk := range []bool{false, true} {
		rng := rand.New(rand.NewSource(71))
		ev, err := NewEvaluator(randomLoadStateProblem(rng, 40, 48, withDisk))
		if err != nil {
			t.Fatal(err)
		}
		K := 8
		ls := NewLoadState(ev, randomAssign(rng, ev, K), K)
		var want [4][]float64
		for i := range want {
			want[i] = make([]float64, ev.T)
		}
		moves := 0
		for iter := 0; iter < 600; iter++ {
			before := ls.Assignment()
			mutateRandomly(rng, ls)
			for u, j := range before {
				if ls.Assign(u) != j {
					moves++
				}
			}
			for j := 0; j < ls.K(); j++ {
				ev.accumulateInto(ls.Members(j), want[0], want[1], want[2], want[3])
				got := [4][]float64{ls.cpu[j], ls.ram[j], ls.ws[j], ls.rate[j]}
				for s := range got {
					if !withDisk && s >= 2 {
						break
					}
					for k := 0; k < ev.T; k++ {
						if math.Float64bits(got[s][k]) != math.Float64bits(want[s][k]) {
							t.Fatalf("withDisk=%v iter %d: machine %d (%d members) stream %d step %d holds %v, accumulateInto %v",
								withDisk, iter, j, ls.MemberCount(j), s, k, got[s][k], want[s][k])
						}
					}
				}
			}
		}
		if ls.K() == K || moves == 0 {
			t.Fatalf("withDisk=%v: %d machines left of %d after %d unit moves: no Fold was exercised", withDisk, ls.K(), K, moves)
		}
	}
}

// TestLoadStateFold checks the machine-count reduction primitive: folding
// the last label onto an emptied one preserves canonical contributions and
// produces an assignment a fresh LoadState prices identically (modulo
// member-order rounding).
func TestLoadStateFold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomLoadStateProblem(rng, 9, 24, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	nU := ev.NumUnits()
	K := 5
	empty := 2
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
		if assign[u] == empty {
			assign[u] = (u + 1) % K
		}
	}
	ls := NewLoadState(ev, assign, K)
	if ls.MemberCount(empty) != 0 {
		t.Fatalf("machine %d should start empty", empty)
	}
	ls.Fold(empty)
	if ls.K() != K-1 {
		t.Fatalf("K = %d after fold, want %d", ls.K(), K-1)
	}
	checkCanonical(t, ev, ls)
	fresh := NewLoadState(ev, ls.Assignment(), ls.K())
	for j := 0; j < ls.K(); j++ {
		if got, want := ls.Contrib(j), fresh.Contrib(j); !relClose(got, want, 1e-9) {
			t.Errorf("machine %d contrib %v differs from fresh build %v", j, got, want)
		}
	}
}

// cubicDiskFit is syntheticDiskProfile's fit as a degree-3 polynomial, which
// Poly2D.Eval walks in evalLoop instead of the unrolled quadratic.
func cubicDiskFit() polyfit.Poly2D {
	return polyfit.Poly2D{Degree: 3, Coeffs: []float64{0.5, 0.002, 0.003, 0, 0, 0, 1e-15, 0, 0, 0}}
}

// TestLoadStatePricingAllocationFree asserts the acceptance criterion that
// candidate-move pricing allocates nothing — the property that lets a
// hill-climb sweep price U·K moves without garbage — on every kernel shape:
// CPU and RAM only, and with the disk model's two extra streams and its
// polynomial, quadratic and cubic. Each run prices every unit onto every
// machine, so CanPlace takes each of its exits: its own machine, a machine
// holding a conflicting pair (machine 1) or the unit's replica, a machine
// too small for anything (machine 0, refused by the screen), and exact
// pricing. Machine K−1 holds one unit, whose removal empties it.
func TestLoadStatePricingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, diskDegree := range []int{0, 2, 3} {
		rng := rand.New(rand.NewSource(11))
		p := randomLoadStateProblem(rng, 10, 36, diskDegree > 0)
		if diskDegree == 3 {
			p.Disk.Fit = cubicDiskFit()
		}
		p.Machines[0].CPUCapacity = 0.01
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		nU := ev.NumUnits()
		K := 5
		assign := make([]int, nU)
		for u := range assign {
			assign[u] = u % (K - 1)
		}
		assign[nU-1] = K - 1
		paired := false
		for u := 0; u < nU-1 && !paired; u++ {
			for _, c := range ev.conflicts[u] {
				if c != nU-1 {
					assign[u], assign[c], paired = 1, 1, true
					break
				}
			}
		}
		if !paired {
			t.Fatal("the problem has no conflicting pair to place together")
		}
		ls := NewLoadState(ev, assign, K)
		var sink float64
		allocs := testing.AllocsPerRun(50, func() {
			for u := 0; u < nU; u++ {
				sink += ls.PriceRemove(u)
				for j := 0; j < K; j++ {
					sink += ls.PriceAdd(u, j)
					if ls.CanPlace(u, j) {
						sink++
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("disk degree %d: candidate-move pricing allocates %v objects per run, want 0", diskDegree, allocs)
		}
		_ = sink
	}
}

// TestLoadStateMoveKeepsAssignInvariant checks assign/members stay in
// lockstep through moves and that moving a unit onto its own machine is a
// no-op.
func TestLoadStateMoveKeepsAssignInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomLoadStateProblem(rng, 8, 12, false)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	nU := ev.NumUnits()
	K := 4
	assign := make([]int, nU)
	for u := range assign {
		assign[u] = u % K
	}
	ls := NewLoadState(ev, assign, K)
	before := ls.Contrib(0)
	ls.Move(0, ls.Assign(0))
	if !floats.Same(ls.Contrib(0), before) {
		t.Error("self-move changed state")
	}
	for op := 0; op < 50; op++ {
		u, j := rng.Intn(nU), rng.Intn(K)
		ls.Move(u, j)
		if ls.Assign(u) != j {
			t.Fatalf("assign[%d] = %d after Move to %d", u, ls.Assign(u), j)
		}
	}
	counts := 0
	for j := 0; j < K; j++ {
		for _, u := range ls.Members(j) {
			if ls.Assign(u) != j {
				t.Fatalf("unit %d listed on machine %d but assigned to %d", u, j, ls.Assign(u))
			}
			counts++
		}
	}
	if counts != nU {
		t.Fatalf("member lists cover %d units, want %d", counts, nU)
	}
}

// membersExchanged returns a copy of machine j's member list with `out`
// excised in place and `in` appended — the canonical member list PriceSwap
// prices and Swap produces.
func membersExchanged(ls *LoadState, j, out, in int) []int {
	var cp []int
	for _, m := range ls.Members(j) {
		if m != out {
			cp = append(cp, m)
		}
	}
	return append(cp, in)
}

// TestLoadStateSwapMatchesCanonicalPricing drives randomized 2-exchange
// pricing against the canonical scratch evaluator: PriceSwap must agree
// with ServerContrib on the exchanged member lists (within rounding — both
// sides are subtractive, the same discipline as PriceRemove), and applying
// the swap must leave the state bit-identical to the canonical pricer. A
// full Eval on the swapped assignment must agree with the pre-priced
// machine contributions too. Runs under -race in CI.
func TestLoadStateSwapMatchesCanonicalPricing(t *testing.T) {
	for _, withDisk := range []bool{false, true} {
		name := "cpu+ram"
		if withDisk {
			name = "with-disk-model"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			trials := 4
			ops := 150
			if testing.Short() {
				trials, ops = 2, 50
			}
			for trial := 0; trial < trials; trial++ {
				p := randomLoadStateProblem(rng, 8+rng.Intn(6), 24, withDisk)
				ev, err := NewEvaluator(p)
				if err != nil {
					t.Fatal(err)
				}
				nU := ev.NumUnits()
				K := 4 + rng.Intn(3)
				assign := make([]int, nU)
				for u := range assign {
					assign[u] = rng.Intn(K)
				}
				ls := NewLoadState(ev, assign, K)
				for op := 0; op < ops; op++ {
					u := rng.Intn(nU)
					v := rng.Intn(nU)
					if u == v || ls.Assign(u) == ls.Assign(v) {
						continue
					}
					a, b := ls.Assign(u), ls.Assign(v)
					gotU, gotV := ls.PriceSwap(u, v)
					wantU := ev.ServerContrib(a, membersExchanged(ls, a, u, v))
					wantV := ev.ServerContrib(b, membersExchanged(ls, b, v, u))
					if !relClose(gotU, wantU, 1e-9) || !relClose(gotV, wantV, 1e-9) {
						t.Fatalf("trial %d op %d: PriceSwap(%d,%d) = (%v,%v), canonical (%v,%v)",
							trial, op, u, v, gotU, gotV, wantU, wantV)
					}
					if op%3 == 0 {
						ls.Swap(u, v)
						if ls.Assign(u) != b || ls.Assign(v) != a {
							t.Fatalf("trial %d op %d: swap left units on (%d,%d), want (%d,%d)",
								trial, op, ls.Assign(u), ls.Assign(v), b, a)
						}
						// Post-swap state is canonical bit for bit.
						if got, want := ls.Contrib(a), ev.ServerContrib(a, append([]int(nil), ls.Members(a)...)); !floats.Same(got, want) {
							t.Fatalf("trial %d op %d: post-swap contrib(a) = %v, canonical %v", trial, op, got, want)
						}
						if got, want := ls.Contrib(b), ev.ServerContrib(b, append([]int(nil), ls.Members(b)...)); !floats.Same(got, want) {
							t.Fatalf("trial %d op %d: post-swap contrib(b) = %v, canonical %v", trial, op, got, want)
						}
					}
				}
				checkCanonical(t, ev, ls)
				// The priced-and-applied assignment round-trips through the
				// canonical Eval: feasibility and objective come from the
				// same sums the swaps maintained.
				if obj, _ := ev.Eval(ls.Assignment(), K); math.IsNaN(obj) {
					t.Fatal("swapped assignment prices to NaN")
				}
			}
		})
	}
}

// TestLoadStateSwapPricingAllocationFree extends the zero-allocation
// guarantee to 2-exchange pricing — a swap sweep prices O(U²) candidates
// and must generate no garbage — with and without the disk streams.
func TestLoadStateSwapPricingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, withDisk := range []bool{false, true} {
		rng := rand.New(rand.NewSource(17))
		p := randomLoadStateProblem(rng, 10, 36, withDisk)
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		nU := ev.NumUnits()
		K := 5
		assign := make([]int, nU)
		for u := range assign {
			assign[u] = u % K
		}
		ls := NewLoadState(ev, assign, K)
		u, v := 0, 1
		for ls.Assign(u) == ls.Assign(v) {
			v++
		}
		var sink float64
		allocs := testing.AllocsPerRun(200, func() {
			a, b := ls.PriceSwap(u, v)
			sink += a + b
		})
		if allocs != 0 {
			t.Errorf("withDisk=%v: swap pricing allocates %v objects per run, want 0", withDisk, allocs)
		}
		_ = sink
	}
}

// TestEnvelopeViolationBoundary pins the aligned boundary semantics inside
// the objective: with the envelope clamped to 0 at a huge working set, an
// idle machine (rate 0) is feasible, and any positive rate is a violation —
// the old `maxRate > 0` guard silently skipped that check.
func TestEnvelopeViolationBoundary(t *testing.T) {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	T := 4
	mk := func(rate float64) *Problem {
		w := Workload{
			Name:       "w0",
			CPU:        series.Constant(start, step, T, 0.1),
			RAMBytes:   series.Constant(start, step, T, 1e9),
			WSBytes:    series.Constant(start, step, T, 50000e6), // envelope clamps to 0
			UpdateRate: series.Constant(start, step, T, rate),
			PinTo:      -1,
		}
		return &Problem{
			Workloads: []Workload{w},
			Machines: []Machine{{
				Name: "m0", CPUCapacity: 1, RAMBytes: 64e9, DiskWriteBps: 1e12,
			}},
			Disk: &model.DiskProfile{
				// Zero write fit isolates the envelope term.
				Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0, 0, 0, 0, 0, 0}},
				Envelope:    polyfit.Poly1D{Coeffs: []float64{9000, -1.5}},
				HasEnvelope: true,
				WSMinMB:     100,
				WSMaxMB:     100000,
			},
		}
	}
	evIdle, err := NewEvaluator(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	if sl := evIdle.serverEval(0, []int{0}); sl.Violation != 0 {
		t.Errorf("idle rate over zero envelope: violation = %v, want 0", sl.Violation)
	}
	evBusy, err := NewEvaluator(mk(10))
	if err != nil {
		t.Fatal(err)
	}
	if sl := evBusy.serverEval(0, []int{0}); sl.Violation <= 0 {
		t.Errorf("positive rate over zero envelope: violation = %v, want > 0", sl.Violation)
	}
}
