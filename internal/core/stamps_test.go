package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kairos/internal/floats"
)

// stepRecorder logs the moves and swaps a climb accepts, as it accepts them,
// without a hook in the climb: the sweeps consult ctx.Err() before every
// unit, and a unit's scan accepts at most one step, so diffing the
// LoadState's assignment at each call isolates it — one unit on a new
// machine is a move, two are a swap.
type stepRecorder struct {
	context.Context
	ls    *LoadState
	last  []int
	steps []string
}

func newStepRecorder(ls *LoadState) *stepRecorder {
	return &stepRecorder{Context: context.Background(), ls: ls, last: ls.Assignment()}
}

func (r *stepRecorder) Err() error {
	var changed []int
	for u, j := range r.ls.assign {
		if j != r.last[u] {
			changed = append(changed, u)
			r.last[u] = j
		}
	}
	switch len(changed) {
	case 0:
	case 1:
		r.steps = append(r.steps, fmt.Sprintf("move %d→%d", changed[0], r.last[changed[0]]))
	case 2:
		r.steps = append(r.steps, fmt.Sprintf("swap %d,%d", changed[0], changed[1]))
	default:
		r.steps = append(r.steps, fmt.Sprintf("?? %v", changed))
	}
	return nil
}

// TestClimbSequenceMatchesFullRescan is the equivalence property of the
// change clock: a climb that skips candidates whose machines have not
// changed since it last rejected them accepts the same sequence of moves and
// swaps — not merely the same final plan — as the same sweep code handed no
// memo, which re-prices every candidate every time. Randomized problems with
// pins, anti-affinity, replicas, SLAs and machines of differing capacities,
// with and without the disk model, on fleets of one and two bitset words;
// cold climbs, warm climbs priced with MigrationWeight, and warm climbs
// under MaxMigrations, where the memo must be absent altogether.
func TestClimbSequenceMatchesFullRescan(t *testing.T) {
	type mode struct {
		name   string
		opt    *SolveOptions // nil = cold
		capped bool          // MaxMigrations = the units away at the start + 2
	}
	modes := []mode{
		{"cold", nil, false},
		{"warm-weight", &SolveOptions{MigrationWeight: 0.05}, false},
		{"warm-capped", &SolveOptions{MigrationWeight: 0.05}, true},
	}
	skippedAny := map[string]bool{}
	for _, nW := range []int{14, 70} {
		for _, withDisk := range []bool{false, true} {
			for seed := int64(0); seed < 3; seed++ {
				for _, m := range modes {
					label := fmt.Sprintf("nW=%d disk=%v seed=%d %s", nW, withDisk, seed, m.name)
					rng := rand.New(rand.NewSource(900 + seed + int64(nW)))
					p := constrainedProblem(rng, nW, 24, withDisk)
					ev, err := NewEvaluator(p)
					if err != nil {
						t.Fatal(err)
					}
					K := 5 + nW/10
					start := randomAssign(rng, ev, K)
					for u, pin := range ev.pin {
						if pin >= 0 {
							start[u] = pin
						}
					}
					// The warm modes drift a third of the units off an
					// incumbent that is the start itself.
					home := append([]int(nil), start...)
					if m.opt != nil {
						for u := range start {
							if ev.pin[u] < 0 && rng.Intn(3) == 0 {
								start[u] = rng.Intn(K)
							}
						}
					}

					run := func(skip bool) (*Evaluator, *stepRecorder) {
						e := ev.Clone()
						var mig *migration
						if m.opt != nil {
							mig = e.newMigration(home, *m.opt)
							mig.syncAway(start)
							if m.capped {
								mig.limit = mig.away + 2
							}
						}
						ls := NewLoadState(e, start, K)
						var memo *scanMemo
						if skip {
							memo = newScanMemo(ls, mig)
							if m.capped != (memo == nil) {
								t.Fatalf("%s: memo present = %v under a migration cap = %v", label, memo != nil, m.capped)
							}
						}
						rec := newStepRecorder(ls)
						e.climb(rec, ls, 100, mig, memo, nil)
						rec.Err() // the last unit's step
						return e, rec
					}
					got, gotRec := run(true)
					ref, refRec := run(false)

					if !reflect.DeepEqual(gotRec.steps, refRec.steps) {
						for i := range refRec.steps {
							if i >= len(gotRec.steps) || gotRec.steps[i] != refRec.steps[i] {
								t.Fatalf("%s: step %d of %d: skipping climb diverges from the full rescan\n skip: %v\n full: %v",
									label, i, len(refRec.steps), gotRec.steps[i:min(i+3, len(gotRec.steps))], refRec.steps[i:min(i+3, len(refRec.steps))])
							}
						}
						t.Fatalf("%s: skipping climb took %d steps, full rescan %d", label, len(gotRec.steps), len(refRec.steps))
					}
					if len(refRec.steps) == 0 {
						t.Fatalf("%s: the climb accepted nothing — no sequence to compare", label)
					}
					if !reflect.DeepEqual(gotRec.last, refRec.last) {
						t.Fatalf("%s: same steps, different final assignment", label)
					}
					// Every candidate the full rescan considered was either
					// considered or skipped-unchanged, never lost.
					if ref.stats.Skipped != 0 || got.Fevals+got.stats.Skipped != ref.Fevals || got.stats.Sweeps != ref.stats.Sweeps {
						t.Fatalf("%s: considered %d + skipped %d over %d sweeps, full rescan considered %d (skipped %d) over %d",
							label, got.Fevals, got.stats.Skipped, got.stats.Sweeps, ref.Fevals, ref.stats.Skipped, ref.stats.Sweeps)
					}
					if got.stats.Skipped > 0 {
						skippedAny[m.name] = true
					}
				}
			}
		}
	}
	if !skippedAny["cold"] || !skippedAny["warm-weight"] || skippedAny["warm-capped"] {
		t.Fatalf("candidates skipped per mode = %v, want cold and warm-weight only", skippedAny)
	}
}

// TestLoadStateChangeClock checks the stamp invariant every skip rests on:
// whatever a mutator does — Move, Swap, reduceK's deferred move burst with
// its rollback, Fold — a machine whose stamp is no later than a clock read
// beforehand has exactly the member list and contribution it had then.
func TestLoadStateChangeClock(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomLoadStateProblem(rng, 12, 12, true)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	K := 6
	ls := NewLoadState(ev, randomAssign(rng, ev, K), K)
	if ls.clock == 0 {
		t.Fatal("clock starts at 0: a never-scanned unit (since = 0) would see nothing changed")
	}
	for j := 0; j < K; j++ {
		if ls.changed[j] == 0 || ls.changed[j] > ls.clock {
			t.Fatalf("new LoadState: machine %d stamped %d at clock %d, want changed since 0 and not since now", j, ls.changed[j], ls.clock)
		}
	}

	type snapshot struct {
		clock   uint64
		members [][]int
		contrib []float64
	}
	snap := func() snapshot {
		s := snapshot{clock: ls.clock}
		for j := 0; j < ls.K(); j++ {
			s.members = append(s.members, append([]int(nil), ls.Members(j)...))
			s.contrib = append(s.contrib, ls.Contrib(j))
		}
		return s
	}
	// check asserts the invariant against s and that exactly the machines in
	// touched (current labels) carry a later stamp.
	check := func(op string, s snapshot, touched ...int) {
		t.Helper()
		var stamped []int
		for j := 0; j < ls.K(); j++ {
			if ls.changed[j] > s.clock {
				stamped = append(stamped, j)
				continue
			}
			if !reflect.DeepEqual(append([]int(nil), ls.Members(j)...), s.members[j]) || !floats.Same(ls.Contrib(j), s.contrib[j]) {
				t.Fatalf("%s: machine %d is unstamped but changed: members %v → %v", op, j, s.members[j], ls.Members(j))
			}
		}
		sort.Ints(touched)
		if !reflect.DeepEqual(stamped, touched) {
			t.Fatalf("%s: stamped machines %v, want %v", op, stamped, touched)
		}
	}

	for op := 0; op < 40; op++ {
		u, v := rng.Intn(ev.NumUnits()), rng.Intn(ev.NumUnits())
		s := snap()
		if a, b := ls.Assign(u), ls.Assign(v); op%2 == 0 && a != b {
			ls.Swap(u, v)
			check("Swap", s, a, b)
		} else if to := rng.Intn(K); to != a {
			ls.Move(u, to)
			check("Move", s, a, to)
		} else {
			ls.Move(u, to)
			check("self-Move", s)
		}
	}

	// reduceK's trial: empty machine j with deferred re-materialization,
	// then roll back to the original member order.
	j := 0
	for len(ls.Members(j)) < 2 {
		j++
	}
	s := snap()
	units := append([]int(nil), ls.Members(j)...)
	hosts := []int{j}
	for i, u := range units {
		to := (j + 1 + i%2) % K
		ls.move(u, to, false, true)
		hosts = append(hosts, to)
	}
	sort.Ints(hosts)
	hosts = uniqInts(hosts)
	check("deferred moves", s, hosts...)
	for i := len(units) - 1; i >= 0; i-- {
		ls.move(units[i], j, false, false)
	}
	ls.members[j] = append(ls.members[j][:0], units...)
	for _, h := range hosts {
		ls.rematerialize(h)
	}
	check("rollback", s, hosts...)
	checkCanonical(t, ev, ls)

	// Fold: empty a machine other than the last, then fold the last label
	// onto it — the relabelled slot must read as changed.
	empty := 1
	for _, u := range append([]int(nil), ls.Members(empty)...) {
		ls.Move(u, 0)
	}
	s = snap()
	ls.Fold(empty)
	if ls.K() != K-1 {
		t.Fatalf("K = %d after Fold, want %d", ls.K(), K-1)
	}
	check("Fold", s, empty)
}

func uniqInts(sorted []int) []int {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestSweepsAllocationFree extends the zero-allocation guarantee from the
// pricers to the scans built on them — bestMove and a whole swap sweep, with
// a memo — on a converged state, where nothing is accepted and no
// re-materialization runs. The full swap sweep must take the staged screen
// past its last stage: some candidates pruned, some priced exactly. The
// full scans must run the capacity stage both ways, some candidates pruned
// and some passed to the first stage — but for the disk model's state,
// which overflows no CPU or RAM cap, so the stage only passes. The
// problem's RAM and working set are flat, priced at one step and, forced, at
// all T.
func TestSweepsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, tc := range allocCases {
		withDisk := tc.withDisk
		rng := rand.New(rand.NewSource(23))
		p := randomLoadStateProblem(rng, 24, 36, withDisk)
		ev := tc.evaluator(t, p)
		K := 6
		ctx := context.Background()
		ls := NewLoadState(ev, ev.hillClimb(ctx, randomAssign(rng, ev, K), K).assign, K)
		memo := newScanMemo(ls, nil)
		for _, since := range []uint64{0, ls.clock} {
			var considered, priced int // of one swap sweep
			var scanned, capPruned int // of the move scans and the swap sweep
			allocs := testing.AllocsPerRun(50, func() {
				start := ev.stats
				for u := 0; u < ls.NumUnits(); u++ {
					memo.swaps[u] = since
					if ev.bestMove(ls, u, nil, since) != ls.Assign(u) {
						t.Fatal("converged state still has an improving move")
					}
				}
				before := ev.stats
				if ev.sweep(ctx, ls, nil, memo, nil, &swapSweep) {
					t.Fatal("converged state still has an improving swap")
				}
				considered, priced = ev.stats.Considered-before.Considered, ev.stats.Priced-before.Priced
				scanned, capPruned = ev.stats.Considered-start.Considered, ev.stats.CapPruned-start.CapPruned
			})
			if allocs != 0 {
				t.Errorf("%+v since=%d: move and swap scans allocate %v objects per run, want 0", tc, since, allocs)
			}
			// A full scan prices some swaps exactly and prunes the rest; a
			// scan of a state where nothing changed considers none.
			if since == 0 && !(priced > 0 && priced < 2*considered) {
				t.Errorf("withDisk=%v: the full swap sweep ran %d exact pricings for %d candidates: the staged screen was not exercised end to end", withDisk, priced, considered)
			}
			if since == 0 && (capPruned == scanned || (!withDisk && capPruned == 0)) {
				t.Errorf("withDisk=%v: the capacity stage pruned %d of the %d candidates the full scans considered", withDisk, capPruned, scanned)
			}
			if since != 0 && considered != 0 {
				t.Errorf("withDisk=%v: the swap sweep of an unchanged state considered %d candidates", withDisk, considered)
			}
		}
	}
}
