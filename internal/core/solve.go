package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"kairos/internal/direct"
	"kairos/internal/greedy"
)

// SolveOptions tunes the consolidation solver.
type SolveOptions struct {
	// DirectFevals is the DIRECT evaluation budget per K probed during the
	// binary search (default 2000).
	DirectFevals int
	// PolishFevals is the extra DIRECT budget for the final K (default
	// 2·DirectFevals).
	PolishFevals int
	// FixedK forces the solver to use exactly this many machines (0 = find
	// the minimum feasible K automatically).
	FixedK int
	// SkipDirect uses only greedy seeding plus hill climbing — the fast
	// path for very large instances.
	SkipDirect bool
	// Workers is the solver's evaluation parallelism: DIRECT candidate
	// batches and greedy seeding fan out across this many goroutines, and
	// the binary search over the machine count probes the speculative next
	// K values concurrently, cancelling losers (0 or 1 = fully sequential).
	// The computed plan is identical for every worker count — parallelism
	// only changes wall-clock time — so results stay reproducible.
	Workers int
	// MigrationWeight prices warm-restart migrations (Resolve only): a unit
	// placed away from its incumbent machine charges
	// MigrationWeight · (its peak working set / the fleet's mean peak
	// working set) on top of the balance objective, so heavy databases are
	// stickier than light ones. 0 disables migration pricing. Cold solves
	// (Solve, SolveSharded) ignore it — they have no incumbent.
	MigrationWeight float64
	// MaxMigrations caps how many units a warm re-solve may leave away from
	// their incumbent machine (Resolve only; 0 = unlimited). With a cap
	// set, Resolve skips the machine-count reduction pass, which migrates
	// whole machines at a time.
	MaxMigrations int
	// BucketWidth sets the coarse-pricing bucket width in time steps for
	// the local search's move screen (see Evaluator.SetBucketWidth): 0 uses
	// the default ⌈T/16⌉, a positive value is used as given, and a negative
	// value disables screening so every candidate is priced exactly. The
	// computed plan is bit-identical for every setting — the screen only
	// prunes candidates whose priced delta provably could not win.
	BucketWidth int
}

// workers normalizes the Workers option.
func (o SolveOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// DefaultSolveOptions returns the standard budgets.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{DirectFevals: 2000}
}

// ParallelSolveOptions returns the standard budgets with one solver worker
// per available CPU.
func ParallelSolveOptions() SolveOptions {
	o := DefaultSolveOptions()
	o.Workers = runtime.GOMAXPROCS(0)
	return o
}

// kCandidate is a feasible plan found while searching the machine count.
type kCandidate struct {
	assign []int
	obj    float64
	k      int
}

// Solve finds a consolidation plan: the minimum feasible machine count K'
// via binary search between the fractional lower bound and the greedy upper
// bound, then the most balanced assignment on K' machines (paper Section 6).
// Cancelling ctx aborts the solve between pricing units and returns
// ctx.Err(); the partial state is discarded.
func Solve(ctx context.Context, p *Problem, opt SolveOptions) (*Solution, error) {
	start := time.Now()
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	if opt.BucketWidth != 0 {
		ev.SetBucketWidth(opt.BucketWidth)
	}
	if opt.DirectFevals <= 0 {
		opt.DirectFevals = 2000
	}
	if opt.PolishFevals <= 0 {
		opt.PolishFevals = 2 * opt.DirectFevals
	}

	maxK := len(p.Machines)
	lo := ev.FractionalLowerBound()
	if lo > maxK {
		return nil, fmt.Errorf("core: fractional lower bound %d exceeds available machines %d", lo, maxK)
	}
	// Pinning forces machines up to the highest pinned index.
	for _, pin := range ev.pin {
		if pin >= 0 && pin+1 > lo {
			lo = pin + 1
		}
	}

	if opt.FixedK > 0 {
		if opt.FixedK > maxK {
			return nil, fmt.Errorf("core: FixedK %d exceeds available machines %d", opt.FixedK, maxK)
		}
		// A pin outside [0,FixedK) can never be honoured: every seed would
		// place the unit out of range. (Probing an infeasible-but-in-range
		// FixedK is still allowed; it returns Feasible=false.)
		for u, pin := range ev.pin {
			if pin >= opt.FixedK {
				return nil, fmt.Errorf("core: FixedK %d cannot honour workload unit %d pinned to machine %d", opt.FixedK, u, pin)
			}
		}
		assign, objv, feas := ev.solveK(ctx, opt.FixedK, opt, true)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return ev.finish(p, assign, opt.FixedK, objv, feas, start), nil
	}

	// Upper bound: greedy packing (validated against all constraints); if
	// greedy fails, fall back to every available machine.
	hi := maxK
	if bins, ok := ev.greedySeed(maxK, opt.workers()); ok {
		hi = len(bins)
	}
	if hi < lo {
		hi = lo
	}

	// Binary search the smallest feasible K. Feasibility at K is decided by
	// a budgeted solve; the search keeps the best feasible solution found.
	var found *kCandidate
	if opt.workers() > 1 {
		found = ev.searchKSpeculative(ctx, lo, hi, opt, &lo)
	} else {
		for lo < hi {
			mid := (lo + hi) / 2
			assign, objv, feas := ev.solveK(ctx, mid, opt, false)
			if feas {
				found = &kCandidate{assign: assign, obj: objv, k: mid}
				hi = mid
			} else {
				lo = mid + 1
			}
		}
	}
	kStar := lo
	// Final run at K' with the polish budget.
	assign, objv, feas := ev.solveK(ctx, kStar, opt, true)
	if !feas && found != nil && found.k == kStar {
		assign, objv, feas = found.assign, found.obj, true
	}
	if !feas && kStar < maxK {
		// The bound search can be misled by budgeted solves; walk K upward
		// until feasible.
		for k := kStar + 1; k <= maxK; k++ {
			assign, objv, feas = ev.solveK(ctx, k, opt, true)
			if feas {
				kStar = k
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ev.finish(p, assign, kStar, objv, feas, start), nil
}

// searchKSpeculative runs the binary search over the machine count with
// speculative parallel probing: while the current midpoint K solves, the
// midpoints of both possible next intervals solve concurrently on cloned
// evaluators, and probes that fall outside the interval once the current
// result lands are cancelled via their context. The sequence of consumed
// probes is exactly the sequential binary search's, and every probe is a
// deterministic function of its K, so the outcome (including Fevals, which
// only counts consumed probes) is identical to the sequential path. The
// final interval low bound is written to *loOut. Probe contexts derive
// from the caller's ctx, so cancelling it aborts every in-flight probe.
func (ev *Evaluator) searchKSpeculative(ctx context.Context, lo, hi int, opt SolveOptions, loOut *int) *kCandidate {
	type probeRes struct {
		assign []int
		obj    float64
		feas   bool
		fevals int
	}
	type future struct {
		cancel context.CancelFunc
		ch     chan probeRes
	}
	// Up to three probes (the current mid plus both speculative next mids)
	// run at once; splitting the worker budget across them keeps the
	// search's total goroutine count at ~Workers. Which workers a probe
	// gets never changes its result, only its wall clock.
	probeOpt := opt
	if probeOpt.Workers = opt.workers() / 3; probeOpt.Workers < 1 {
		probeOpt.Workers = 1
	}
	launch := func(K int) *future {
		pctx, cancel := context.WithCancel(ctx)
		f := &future{cancel: cancel, ch: make(chan probeRes, 1)}
		pe := ev.Clone()
		go func() {
			a, o, feas := pe.solveK(pctx, K, probeOpt, false)
			f.ch <- probeRes{a, o, feas, pe.Fevals}
		}()
		return f
	}
	futures := map[int]*future{}
	ensure := func(K int) *future {
		if f, ok := futures[K]; ok {
			return f
		}
		f := launch(K)
		futures[K] = f
		return f
	}
	defer func() {
		for _, f := range futures {
			f.cancel()
		}
	}()

	var found *kCandidate
	for lo < hi {
		mid := (lo + hi) / 2
		cur := ensure(mid)
		// Speculate both possible next probes while mid solves.
		if next := (lo + mid) / 2; next < mid {
			ensure(next)
		}
		if next := (mid + 1 + hi) / 2; next > mid && next < hi {
			ensure(next)
		}
		r := <-cur.ch
		cur.cancel()
		delete(futures, mid)
		ev.Fevals += r.fevals
		if r.feas {
			found = &kCandidate{assign: r.assign, obj: r.obj, k: mid}
			hi = mid
		} else {
			lo = mid + 1
		}
		// The interval moved: probes outside it can never be consumed.
		for K, f := range futures {
			if K < lo || K >= hi {
				f.cancel()
				delete(futures, K)
			}
		}
	}
	*loOut = lo
	return found
}

// finish assembles the Solution.
func (ev *Evaluator) finish(p *Problem, assign []int, k int, obj float64, feasible bool, start time.Time) *Solution {
	return &Solution{
		Assign:    assign,
		Units:     ev.Units(),
		K:         k,
		Feasible:  feasible,
		Objective: obj,
		Fevals:    ev.Fevals,
		Elapsed:   time.Since(start),
	}
}

// FractionalLowerBound computes the paper's optimistic bound: workloads are
// divisible and resources independent, so K must be at least the peak
// aggregate demand of each resource divided by per-machine capacity.
func (ev *Evaluator) FractionalLowerBound() int {
	T := ev.T
	sum2 := func(a, b [][]float64) (aSum, bSum []float64) {
		aSum, bSum = make([]float64, T), make([]float64, T)
		for u := range ev.units {
			au, bu := a[u][:T], b[u][:T]
			for t := range aSum {
				aSum[t] += au[t]
				bSum[t] += bu[t]
			}
		}
		return aSum, bSum
	}
	cpuSum, ramSum := sum2(ev.cpu, ev.ram)
	m := ev.p.Machines[0]
	k := 1
	for t := 0; t < T; t++ {
		if need := int(math.Ceil(cpuSum[t] / m.capacity(m.CPUCapacity))); need > k {
			k = need
		}
		if need := int(math.Ceil(ramSum[t] / m.capacity(m.RAMBytes))); need > k {
			k = need
		}
	}
	if ev.p.Disk != nil {
		wsSum, rateSum := sum2(ev.ws, ev.rate)
		diskCap := m.capacity(m.DiskWriteBps)
		for t := 0; t < T; t++ {
			// Smallest split count making the disk model feasible; the
			// profile is monotone in both arguments, so scan upward.
			for n := k; n <= len(ev.p.Machines); n++ {
				pred := ev.p.Disk.PredictWriteMBps(wsSum[t]/float64(n), rateSum[t]/float64(n)) * 1e6
				ok := pred <= diskCap
				if ok && ev.p.Disk.HasEnvelope {
					// Boundary rule (model.EnvelopeFeasible): at the
					// envelope is feasible, beyond it is not.
					ok = rateSum[t]/float64(n) <= ev.p.Disk.MaxRowsPerSec(wsSum[t]/float64(n))
				}
				if ok {
					if n > k {
						k = n
					}
					break
				}
				if n == len(ev.p.Machines) && n > k {
					k = n
				}
			}
		}
	}
	return k
}

// greedyPacking is the paper's single-resource greedy baseline with no bin
// limit: the bins, or ok=false when no resource order packs the units.
type greedyPacking struct {
	bins [][]int
	ok   bool
}

// greedySeed returns the greedy packing when it fits maxBins bins. The
// packer opens bins one at a time and a limit only makes it give up at the
// first bin past it, so packing within maxBins is the unlimited packing
// whenever that has at most maxBins bins, and fails otherwise: one packing
// per evaluator answers every K a solve probes. Callers must not mutate the
// bins.
func (ev *Evaluator) greedySeed(maxBins, workers int) ([][]int, bool) {
	if ev.packing == nil {
		bins, ok := ev.packGreedy(workers)
		ev.packing = &greedyPacking{bins, ok}
	}
	if g := ev.packing; g.ok && len(g.bins) <= maxBins {
		return g.bins, true
	}
	return nil, false
}

// packGreedy packs units with the paper's single-resource greedy baseline
// into as many bins as it takes, using the full multi-resource feasibility
// check. With workers > 1 the per-resource packings run concurrently, each
// against its own evaluator clone.
func (ev *Evaluator) packGreedy(workers int) ([][]int, bool) {
	loads := ev.greedyLoads()
	var bins [][]int
	var ok bool
	var err error
	if workers > 1 && len(loads) > 1 {
		bins, ok, err = greedy.MultiResourceParallel(loads, func(int) greedy.FitsFunc {
			return ev.Clone().greedyFits()
		}, 0, workers)
	} else {
		bins, ok, err = greedy.MultiResource(loads, ev.greedyFits(), 0)
	}
	if err != nil || !ok {
		return nil, false
	}
	return bins, true
}

// greedyLoads returns the scalar loads the greedy baseline orders units by,
// one row per resource: peak CPU, peak RAM and, under a disk model, peak
// update rate.
func (ev *Evaluator) greedyLoads() [][]float64 {
	nU := len(ev.units)
	peak := func(vals [][]float64) []float64 {
		out := make([]float64, nU)
		for u := 0; u < nU; u++ {
			for _, v := range vals[u] {
				if v > out[u] {
					out[u] = v
				}
			}
		}
		return out
	}
	loads := [][]float64{peak(ev.cpu), peak(ev.ram)}
	if ev.p.Disk != nil {
		loads = append(loads, peak(ev.rate))
	}
	return loads
}

// greedyFits returns the greedy packer's feasibility check against this
// evaluator. The closure owns one scratch member list, so each concurrent
// packing needs its own (from its own evaluator clone).
func (ev *Evaluator) greedyFits() greedy.FitsFunc {
	scratch := make([]int, 0, len(ev.units))
	return func(bin []int, item int) bool {
		// Pins and conflicts cannot be checked bin-locally against machine
		// indices, so the greedy seed only enforces resources and
		// conflicts; pinning is repaired by hill climbing.
		for _, b := range bin {
			if ev.conflicted(b, item) {
				return false
			}
		}
		scratch = append(append(scratch[:0], bin...), item)
		return ev.serverEval(0, scratch).Violation == 0
	}
}

// coldSeeds returns the deterministic cold-start assignments solveK climbs
// from — greedy packing (when it fits K bins) and round-robin spread, both
// with unplaced units parked on machine 0 and pins repaired. Resolve uses
// the same seeds as safety-net candidates, which is what guarantees a warm
// re-solve never loses to the cold local-search path at the same K.
func (ev *Evaluator) coldSeeds(K, workers int) [][]int {
	nU := len(ev.units)
	var seeds [][]int
	if bins, ok := ev.greedySeed(K, workers); ok {
		a := greedy.Assignment(bins, nU)
		for u := range a {
			if a[u] < 0 {
				a[u] = 0
			}
			if ev.pin[u] >= 0 {
				a[u] = ev.pin[u]
			}
		}
		seeds = append(seeds, a)
	}
	rr := make([]int, nU)
	for u := range rr {
		rr[u] = u % K
		if ev.pin[u] >= 0 {
			rr[u] = ev.pin[u]
		}
	}
	return append(seeds, rr)
}

// solveK finds the best assignment on exactly K machines with the given
// budget: greedy and spread seeds improved by hill climbing, plus an
// optional DIRECT global search, polished again. Deterministic throughout
// for any worker count; a cancelled ctx aborts early with a best-effort
// result (speculative probes discard it anyway).
func (ev *Evaluator) solveK(ctx context.Context, K int, opt SolveOptions, polish bool) (assign []int, obj float64, feasible bool) {
	nU := len(ev.units)
	type cand struct {
		assign []int
		obj    float64
		feas   bool
	}
	var cands []cand
	try := func(a []int) {
		a2, o2, f2 := ev.hillClimb(ctx, a, K)
		cands = append(cands, cand{a2, o2, f2})
	}

	// Cold seeds: greedy bins plus round-robin spread.
	for _, a := range ev.coldSeeds(K, opt.workers()) {
		try(a)
	}

	// DIRECT global search over the compact encoding: one continuous
	// variable per unit in [0, K), floor() gives the machine index. With
	// workers > 1 each DIRECT iteration's candidate batch is evaluated
	// across the worker pool, every worker owning an evaluator clone.
	if !opt.SkipDirect {
		budget := opt.DirectFevals
		if polish {
			budget = opt.PolishFevals
		}
		lower := make([]float64, nU)
		upper := make([]float64, nU)
		for i := range upper {
			upper[i] = float64(K)
		}
		decode := func(x []float64, out []int) []int {
			for i, v := range x {
				j := int(v)
				if j >= K {
					j = K - 1
				}
				if ev.pin[i] >= 0 {
					j = ev.pin[i]
				}
				out[i] = j
			}
			return out
		}
		dopt := direct.Options{MaxFevals: budget, Epsilon: 1e-4, Ctx: ctx}
		var res direct.Result
		var derr error
		if workers := opt.workers(); workers > 1 {
			dopt.Workers = workers
			clones := make([]*Evaluator, workers)
			res, derr = direct.MinimizeParallel(func(w int) direct.Objective {
				ce := ev.Clone()
				clones[w] = ce
				tmp := make([]int, nU)
				return func(x []float64) float64 {
					o, _ := ce.Eval(decode(x, tmp), K)
					return o
				}
			}, lower, upper, dopt)
			// Fold worker counters back in fixed order: the total is the
			// batch-point count, independent of scheduling.
			for _, ce := range clones {
				if ce != nil {
					ev.Fevals += ce.Fevals
				}
			}
		} else {
			tmp := make([]int, nU)
			res, derr = direct.Minimize(func(x []float64) float64 {
				o, _ := ev.Eval(decode(x, tmp), K)
				return o
			}, lower, upper, dopt)
		}
		if derr == nil {
			try(decode(res.X, make([]int, nU)))
		}
	}

	bestIdx := 0
	for i := 1; i < len(cands); i++ {
		b, c := cands[bestIdx], cands[i]
		if (c.feas && !b.feas) || (c.feas == b.feas && c.obj < b.obj) {
			bestIdx = i
		}
	}
	best := cands[bestIdx]
	return best.assign, best.obj, best.feas
}

// hillClimb is deterministic best-improvement local search — the
// "polishing" phase of Section 6 — with single-unit moves plus 2-exchange
// swap sweeps. Candidate moves are priced in O(T) against the incremental
// LoadState, so a full move sweep costs O(U·K·T) and a swap sweep O(U²·T),
// instead of the O(·units-per-server·T) factor a scratch re-aggregation
// needs per candidate.
func (ev *Evaluator) hillClimb(ctx context.Context, assign []int, K int) ([]int, float64, bool) {
	return ev.hillClimbRounds(ctx, assign, K, 100)
}

// hillClimbRounds is hillClimb with an explicit sweep budget (the sharded
// solver's cross-shard rebalance pass uses a small one).
func (ev *Evaluator) hillClimbRounds(ctx context.Context, assign []int, K int, maxRounds int) ([]int, float64, bool) {
	return ev.hillClimbMig(ctx, assign, K, maxRounds, nil)
}

// hillClimbMig is the full local search: rounds of single-unit move sweeps,
// falling back to a 2-exchange swap sweep whenever moves stall — swaps
// escape the local optima single-unit moves cannot (two units that should
// trade places but neither fits alongside the other). A non-nil mig adds
// warm-restart migration pricing (Resolve). Accepted moves and swaps
// re-materialize the touched machines' sums canonically inside LoadState,
// and the final plan is re-priced through the canonical Eval, so the
// incremental pricing never drifts into the result. Deterministic: sweep
// order is fixed and independent of worker counts.
func (ev *Evaluator) hillClimbMig(ctx context.Context, assign []int, K int, maxRounds int, mig *migration) ([]int, float64, bool) {
	ls := NewLoadState(ev, assign, K)
	for rounds := 0; rounds < maxRounds && ctx.Err() == nil; rounds++ {
		if !ev.sweepMoves(ctx, ls, K, mig) {
			if !ev.sweepSwaps(ctx, ls, K, mig) {
				break
			}
		}
	}
	// Canonical final pricing through Eval keeps all callers consistent.
	cur := ls.Assignment()
	obj, feas := ev.Eval(cur, K)
	return cur, obj, feas
}

// bestMove returns unit u's best strictly-improving destination machine
// under the current LoadState (and optional migration pricing), or u's
// current machine when no move improves. Counts one Feval per candidate
// priced. Shared by the move sweeps and the warm-seed placement of units
// with no incumbent.
func (ev *Evaluator) bestMove(ls *LoadState, u, K int, mig *migration) int {
	from := ls.Assign(u)
	cFromNew := ls.PriceRemove(u)
	bestJ := from
	bestDelta := -1e-9 // strict improvement required
	screen := ls.Screened()
	for j := 0; j < K; j++ {
		if j == from {
			continue
		}
		if !mig.allows(mig.awayDelta(u, from, j)) {
			continue
		}
		// Fevals counts candidates considered, screened or exactly priced,
		// so its semantics (and every warm-vs-cold comparison built on it)
		// are independent of the coarse screen.
		ev.Fevals++
		if screen {
			// Coarse-to-fine: the O(T/B) lower bound on the destination's
			// new contribution prunes candidates that provably cannot beat
			// the best delta so far. The bound delta mirrors the exact
			// delta expression with ScreenAdd ≤ PriceAdd substituted, so
			// pruned candidates are exactly ones the exact pricing would
			// have rejected — the chosen move is bit-identical.
			lo := ls.ScreenAdd(u, j)
			if (cFromNew+lo)-(ls.Contrib(from)+ls.Contrib(j))+mig.delta(u, from, j) >= bestDelta {
				continue
			}
		}
		cToNew := ls.PriceAdd(u, j)
		delta := (cFromNew + cToNew) - (ls.Contrib(from) + ls.Contrib(j)) + mig.delta(u, from, j)
		if delta < bestDelta {
			bestDelta = delta
			bestJ = j
		}
	}
	return bestJ
}

// sweepMoves runs one best-improvement sweep of single-unit moves, applying
// improving moves as it goes. Reports whether anything moved. A cancelled
// ctx stops the sweep between units, bounding abort latency by one unit's
// O(K·T) pricing rather than a whole sweep.
func (ev *Evaluator) sweepMoves(ctx context.Context, ls *LoadState, K int, mig *migration) bool {
	improved := false
	for u := 0; u < ls.NumUnits(); u++ {
		if ctx.Err() != nil {
			return false
		}
		if ev.pin[u] >= 0 {
			continue
		}
		from := ls.Assign(u)
		if bestJ := ev.bestMove(ls, u, K, mig); bestJ != from {
			mig.note(mig.awayDelta(u, from, bestJ))
			ls.Move(u, bestJ)
			improved = true
		}
	}
	return improved
}

// sweepSwaps runs one best-improvement sweep of 2-exchange swaps: for every
// unit, the best partner on another machine is found by pricing both sides
// of the exchange as two O(T) LoadState deltas, and the best strictly
// improving swap per unit is applied immediately. Reports whether any swap
// was applied. A cancelled ctx stops the sweep between units.
func (ev *Evaluator) sweepSwaps(ctx context.Context, ls *LoadState, K int, mig *migration) bool {
	improved := false
	n := ls.NumUnits()
	screen := ls.Screened()
	for u := 0; u < n; u++ {
		if ctx.Err() != nil {
			return false
		}
		if ev.pin[u] >= 0 {
			continue
		}
		a := ls.Assign(u)
		bestV := -1
		bestDelta := -1e-9 // strict improvement required
		for v := u + 1; v < n; v++ {
			if ev.pin[v] >= 0 {
				continue
			}
			b := ls.Assign(v)
			if b == a {
				continue
			}
			if !mig.allows(mig.awayDelta(u, a, b) + mig.awayDelta(v, b, a)) {
				continue
			}
			ev.Fevals++ // candidates considered, screened or priced
			if screen {
				// Coarse-to-fine, staged: first prune against u's side
				// alone (the other side contributes at least exp(0) = 1),
				// then against both sides' lower bounds. Each stage's
				// bound delta mirrors the exact delta expression — same
				// floating-point shape, termwise lower bounds substituted
				// — so pruned swaps are exactly ones the exact pricing
				// would have rejected.
				loU := ls.screenExchange(a, u, v)
				if (loU+1)-(ls.Contrib(a)+ls.Contrib(b))+
					mig.delta(u, a, b)+mig.delta(v, b, a) >= bestDelta {
					continue
				}
				loV := ls.screenExchange(b, v, u)
				if (loU+loV)-(ls.Contrib(a)+ls.Contrib(b))+
					mig.delta(u, a, b)+mig.delta(v, b, a) >= bestDelta {
					continue
				}
			}
			nu, nv := ls.PriceSwap(u, v)
			delta := (nu + nv) - (ls.Contrib(a) + ls.Contrib(b)) +
				mig.delta(u, a, b) + mig.delta(v, b, a)
			if delta < bestDelta {
				bestDelta = delta
				bestV = v
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
