package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"kairos/internal/cpu"
	"kairos/internal/direct"
	"kairos/internal/floats"
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
}

// DefaultSolveOptions returns the standard budgets.
func DefaultSolveOptions() SolveOptions {
	return SolveOptions{DirectFevals: 2000}
}

// climbed is one hill climb's outcome: a locally optimal assignment, its
// canonical objective and feasibility.
type climbed struct {
	assign []int
	obj    float64
	feas   bool
}

// better reports whether c beats b: feasible over infeasible, then the lower
// objective.
func (c climbed) better(b climbed) bool {
	return (c.feas && !b.feas) || (c.feas == b.feas && c.obj < b.obj)
}

// kRun is what one run of solveK at a machine count leaves for a later run
// at the same count: its cold-seed climbs, a deterministic function of K
// alone — not of the budget — and its DIRECT search (nil with SkipDirect),
// which a larger budget continues instead of sampling the same points again.
// A speculated probe, which ran on an evaluator clone, adds that clone's
// table of priced machines (reuse): the samples the continued search draws
// next are its samples' neighbours.
type kRun struct {
	cold   []climbed
	direct *direct.Search
	reuse  *evalReuse
}

// kSearch is one Solve's memory of the machine counts it has solved: the
// cold climbs of every K, and the DIRECT search of the last feasible probe,
// at directK — the only probe whose K can be K' — with its evaluator's
// table when that was not ev's own. A later run at the same K (the final
// one at K', which the search has usually just probed) starts from them
// instead of climbing the same seeds and drawing and pricing the same
// samples again. probes are the speculated runs in flight (see bisect).
type kSearch struct {
	ev      *Evaluator
	ctx     context.Context
	opt     SolveOptions
	cold    map[int][]climbed
	direct  *direct.Search
	reuse   *evalReuse
	directK int
	probes  map[int]*probe
	wg      sync.WaitGroup
}

// solve runs solveK at K on the search's own evaluator and consumes it.
func (s *kSearch) solve(K int, polish bool) climbed {
	t0, f0 := time.Now(), s.ev.Fevals
	prev := kRun{cold: s.cold[K]}
	if s.directK == K {
		prev.direct = s.direct
		if s.reuse != nil {
			s.ev.reuse, s.reuse = s.reuse, nil
		}
	}
	best, run, resumed := s.ev.solveK(s.ctx, K, s.opt, polish, prev)
	s.consume(K, best, run, ProbeStats{Fevals: s.ev.Fevals - f0, Elapsed: time.Since(t0), Resumed: resumed})
	return best
}

// consume logs a run the search has used — ps carries its evaluations, time
// and resumed samples — and keeps its cold climbs, and its DIRECT search when
// it was feasible, for the next run at K. A run cut short by cancellation
// holds climbs and a search that stopped early, so it never seeds the reuse.
func (s *kSearch) consume(K int, best climbed, run kRun, ps ProbeStats) {
	ps.K, ps.Feasible = K, best.feas
	_, ps.Reused = s.cold[K]
	s.ev.stats.Probes = append(s.ev.stats.Probes, ps)
	if s.ctx.Err() != nil {
		return
	}
	s.cold[K] = run.cold
	if best.feas {
		s.direct, s.reuse, s.directK = run.direct, run.reuse, K
	}
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
	return ev.solve(ctx, opt, start)
}

// solve is Solve on a fresh evaluator of the problem.
func (ev *Evaluator) solve(ctx context.Context, opt SolveOptions, start time.Time) (*Solution, error) {
	p := ev.p
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
	search := &kSearch{ev: ev, ctx: ctx, opt: opt, cold: map[int][]climbed{}, probes: map[int]*probe{}}
	defer search.stop()

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
		best := search.solve(opt.FixedK, true)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return ev.finish(best, opt.FixedK, start), nil
	}

	// Upper bound: greedy packing (validated against all constraints); if
	// greedy fails, fall back to every available machine.
	hi := maxK
	if bins, ok := ev.greedySeed(maxK); ok {
		hi = len(bins)
	}
	if hi < lo {
		hi = lo
	}

	// Binary search the smallest feasible K. Feasibility at K is decided by
	// a budgeted solve; the search keeps the best feasible solution found.
	found, foundK, kStar := search.bisect(lo, hi)
	// Final run at K' with the polish budget.
	best := search.solve(kStar, true)
	if !best.feas && foundK == kStar {
		best = found
	}
	if !best.feas && kStar < maxK {
		// The bound search can be misled by budgeted solves; walk K upward
		// until feasible.
		for k := kStar + 1; k <= maxK; k++ {
			if best = search.solve(k, true); best.feas {
				kStar = k
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ev.finish(best, kStar, start), nil
}

// bisect binary-searches [lo, hi) for the smallest feasible machine count
// and returns the last feasible probe with its K (0 when none was
// feasible) and the final interval low bound. While the midpoint K solves
// on the calling goroutine, the midpoints of both possible next intervals
// are speculated: each runs on an evaluator clone and a helper slot, when
// the CPU budget has one free, and is cancelled once the interval no
// longer holds it. The sequence of consumed probes is the plain binary
// search's, and every probe is a deterministic function of its K, so the
// outcome — Fevals and the work counters, which only count consumed
// probes, and the cold climbs and DIRECT search a consumed probe hands
// back for reuse — does not depend on which probes were speculated. With
// no slot free, it is the plain binary search.
func (s *kSearch) bisect(lo, hi int) (found climbed, foundK, loOut int) {
	ev := s.ev
	for lo < hi {
		mid := (lo + hi) / 2
		if next := (lo + mid) / 2; next < mid {
			s.speculate(next)
		}
		if next := (mid + 1 + hi) / 2; next > mid && next < hi {
			s.speculate(next)
		}
		var best climbed
		if p := s.probes[mid]; p != nil {
			delete(s.probes, mid)
			<-p.done
			p.cancel()
			ev.Fevals += p.ev.Fevals
			ev.stats.add(p.ev.stats)
			p.run.reuse = p.ev.reuse
			s.consume(mid, p.best, p.run, ProbeStats{Fevals: p.ev.Fevals, Elapsed: p.elapsed})
			best = p.best
		} else {
			best = s.solve(mid, false)
		}
		if best.feas {
			found, foundK = best, mid
			hi = mid
		} else {
			lo = mid + 1
		}
		// The interval moved: probes outside it can never be consumed.
		for K, p := range s.probes {
			if K < lo || K >= hi {
				p.cancel()
				delete(s.probes, K)
			}
		}
	}
	return found, foundK, lo
}

// probe is a speculated run of solveK on its own evaluator clone.
type probe struct {
	ev      *Evaluator
	cancel  context.CancelFunc
	done    chan struct{} // closed once best, run and elapsed are set
	best    climbed
	run     kRun
	elapsed time.Duration
}

// speculate starts a probe at K on a helper slot, unless one is in flight
// or the CPU budget has no slot free. Its context derives from the
// search's, so cancelling that aborts it.
func (s *kSearch) speculate(K int) {
	if s.probes[K] != nil || !cpu.TryAcquire() {
		return
	}
	ctx, cancel := context.WithCancel(s.ctx)
	p := &probe{ev: s.ev.Clone(), cancel: cancel, done: make(chan struct{})}
	s.probes[K] = p
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(p.done)
		defer cpu.Release()
		t0 := time.Now()
		p.best, p.run, _ = p.ev.solveK(ctx, K, s.opt, false, kRun{})
		p.elapsed = time.Since(t0)
	}()
}

// stop cancels the probes still in flight and waits for every probe to
// end, so that none outlives the solve.
func (s *kSearch) stop() {
	for _, p := range s.probes {
		p.cancel()
	}
	s.wg.Wait()
}

// finish assembles the Solution.
func (ev *Evaluator) finish(best climbed, k int, start time.Time) *Solution {
	return &Solution{
		Assign:    best.assign,
		Units:     ev.Units(),
		K:         k,
		Feasible:  best.feas,
		Objective: best.obj,
		Loads:     ev.Report(best.assign, k),
		Fevals:    ev.Fevals,
		Stats:     ev.stats,
		Elapsed:   time.Since(start),
	}
}

// FractionalLowerBound computes the paper's optimistic bound: workloads are
// divisible and resources independent, so a K-machine plan — which uses the
// first K machines — needs their capacities to sum to at least the peak
// aggregate demand of each resource.
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
	k := 1
	for t := 0; t < T; t++ {
		if need := machinesCovering(cpuSum[t], ev.capCPU); need > k {
			k = need
		}
		if need := machinesCovering(ramSum[t], ev.capRAM); need > k {
			k = need
		}
	}
	if ev.p.Disk != nil {
		wsSum, rateSum := sum2(ev.ws, ev.rate)
		// The tightening splits the aggregate evenly over n machines. On a
		// mixed fleet it prices the split against the largest disk budget
		// among the first n: raising every budget to that one only relaxes
		// the problem, so the bound stays below the true optimum (and is
		// unchanged when all budgets are equal).
		diskCap := make([]float64, len(ev.capDisk))
		for j, c := range ev.capDisk {
			diskCap[j] = c
			if j > 0 && diskCap[j-1] > c {
				diskCap[j] = diskCap[j-1]
			}
		}
		for t := 0; t < T; t++ {
			// Smallest split count making the disk model feasible; the
			// profile is monotone in both arguments, so scan upward.
			for n := k; n <= len(ev.p.Machines); n++ {
				pred := ev.p.Disk.PredictWriteMBps(wsSum[t]/float64(n), rateSum[t]/float64(n)) * 1e6
				ok := pred <= diskCap[n-1]
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

// machinesCovering returns the smallest K whose first K capacities sum to
// at least demand. Machines are taken a run of equal capacities at a time and
// the count inside a run is ⌈remaining/capacity⌉, so a homogeneous fleet gets
// exactly ⌈demand/capacity⌉ — also when that exceeds the machines there are,
// which is how Solve learns the fleet is over-committed.
func machinesCovering(demand float64, caps []float64) int {
	for j := 0; ; {
		run := 1
		for j+run < len(caps) && floats.Same(caps[j+run], caps[j]) {
			run++
		}
		need := int(math.Ceil(demand / caps[j]))
		if need <= run || j+run == len(caps) {
			return j + need
		}
		demand -= float64(run) * caps[j]
		j += run
	}
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
func (ev *Evaluator) greedySeed(maxBins int) ([][]int, bool) {
	if ev.packing == nil {
		t0 := time.Now()
		bins, ok := ev.packGreedy()
		ev.packing = &greedyPacking{bins, ok}
		ev.stats.GreedyPack += time.Since(t0)
	}
	if g := ev.packing; g.ok && len(g.bins) <= maxBins {
		return g.bins, true
	}
	return nil, false
}

// packGreedy packs units with the paper's single-resource greedy baseline
// into as many bins as it takes, using the full multi-resource feasibility
// check. The per-resource packings take the helpers the CPU budget has
// free, each packing against its worker's evaluator.
func (ev *Evaluator) packGreedy() ([][]int, bool) {
	loads := ev.GreedyLoads()
	evs := ev.fork(len(loads))
	bins, ok, err := greedy.MultiResourceParallel(loads, func(w int) greedy.FitsFunc {
		return evs[w].GreedyFits()
	}, 0)
	if err != nil || !ok {
		return nil, false
	}
	return bins, true
}

// GreedyLoads returns the scalar loads the greedy baseline orders units by,
// one row per resource — peak CPU, peak RAM and, under a disk model, peak
// update rate: with GreedyFits, the inputs of greedy.MultiResource.
func (ev *Evaluator) GreedyLoads() [][]float64 {
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

// binSums is one greedy bin's running aggregate: the members already summed
// (a prefix of the bin, in its order), their canonical demand sums (ws and
// rate nil without a disk model) and the strictest SLA cap among them.
type binSums struct {
	members            []int
	cpu, ram, ws, rate []float64
	slaCap             float64
}

// add extends the bin by unit u (Evaluator.addUnit).
func (bs *binSums) add(ev *Evaluator, u int) {
	ev.addUnit(u, bs.cpu, bs.ram, bs.ws, bs.rate)
	if c := ev.slaCapU[u]; c < bs.slaCap {
		bs.slaCap = c
	}
	bs.members = append(bs.members, u)
}

// GreedyFits returns the greedy packer's feasibility check against this
// evaluator: conflicts, then whether bin+item violates any resource of
// machine 0 — serverEval(0, bin+item).Violation == 0, bit for bit, in O(T)
// per call instead of a re-sum of every member. A bin is recognised by its
// first member and keeps running sums built by accumulate2's own sequence
// (zero, then sum + k·unit in member order); a call catches up on members
// appended since the last one, and starts over when the members it remembers
// are not a prefix of the bin it is handed — MultiResource re-packs under
// every resource order through one closure, so the same first member can
// head a different bin. The closure owns its sums and scratch, so each
// concurrent packing needs its own (from its own evaluator clone).
func (ev *Evaluator) GreedyFits() greedy.FitsFunc {
	T := ev.T
	newSums := func() *binSums {
		bs := &binSums{cpu: make([]float64, T), ram: make([]float64, T), slaCap: 1}
		if ev.p.Disk != nil {
			bs.ws, bs.rate = make([]float64, T), make([]float64, T)
		}
		return bs
	}
	empty, scratch := newSums(), newSums()
	bins := make([]*binSums, len(ev.units)) // keyed by first member
	return func(bin []int, item int) bool {
		// Pins and conflicts cannot be checked bin-locally against machine
		// indices, so the greedy seed only enforces resources and
		// conflicts; pinning is repaired by hill climbing.
		for _, b := range bin {
			if ev.conflicted(b, item) {
				return false
			}
		}
		bs := empty
		if len(bin) > 0 {
			if bs = bins[bin[0]]; bs == nil {
				bs = newSums()
				bins[bin[0]] = bs
			}
			known := len(bs.members)
			if known > len(bin) {
				known = 0
			}
			for i := 0; i < known; i++ {
				if bs.members[i] != bin[i] {
					known = 0
				}
			}
			if known == 0 {
				ev.accumulateInto(nil, bs.cpu, bs.ram, bs.ws, bs.rate)
				bs.members, bs.slaCap = bs.members[:0], 1
			}
			for _, u := range bin[known:] {
				bs.add(ev, u)
			}
		}
		k := ev.scale[item]
		fill2(T, scratch.cpu, scratch.ram, bs.cpu, bs.ram, ev.cpu[item], ev.ram[item], k)
		if ev.p.Disk != nil {
			fill2(T, scratch.ws, scratch.rate, bs.ws, bs.rate, ev.ws[item], ev.rate[item], k)
		}
		slaCap := bs.slaCap
		if c := ev.slaCapU[item]; c < slaCap {
			slaCap = c
		}
		viol, _ := ev.evalSums(0, scratch.cpu, scratch.ram, scratch.ws, scratch.rate, slaCap)
		return viol == 0
	}
}

// coldSeed returns cold-start assignment i of the two solveK climbs from
// — 0 the greedy packing, nil when it does not fit K bins, 1 the
// round-robin spread — with unplaced units parked on machine 0 and pins
// repaired. Resolve climbs the same two as safety-net candidates, which at
// MigrationWeight 0 guarantees a warm re-solve never loses to the cold
// local-search path at the same K.
func (ev *Evaluator) coldSeed(i, K int) []int {
	var a []int
	if i == 0 {
		bins, ok := ev.greedySeed(K)
		if !ok {
			return nil
		}
		a = greedy.Assignment(bins, len(ev.units))
	} else {
		a = make([]int, len(ev.units))
		for u := range a {
			a[u] = u % K
		}
	}
	for u := range a {
		if a[u] < 0 {
			a[u] = 0
		}
		if ev.pin[u] >= 0 {
			a[u] = ev.pin[u]
		}
	}
	return a
}

// solveK finds the best assignment on exactly K machines with the given
// budget: greedy and spread seeds improved by hill climbing, plus an
// optional DIRECT global search (globalSearch), polished again. prev holds
// what an earlier run at this K left: its cold-seed climbs replace climbing
// them, and its DIRECT search is continued, which resumed counts in samples.
// Either way the climbs and the search are returned beside the best
// candidate. The two cold-seed climbs take a helper when the CPU budget has
// one free. Deterministic throughout, whatever ran where; a cancelled ctx
// aborts early with a best-effort result (speculative probes discard it
// anyway).
func (ev *Evaluator) solveK(ctx context.Context, K int, opt SolveOptions, polish bool, prev kRun) (best climbed, run kRun, resumed int) {
	cold := prev.cold
	if cold == nil {
		// Cold seeds: greedy bins plus round-robin spread.
		var climbs [2]*climbed
		evs := ev.fork(len(climbs))
		cpu.Do(len(climbs), func(w, i int) {
			if a := evs[w].coldSeed(i, K); a != nil {
				c := evs[w].hillClimb(ctx, a, K)
				climbs[i] = &c
			}
		})
		ev.join(evs)
		for _, c := range climbs {
			if c != nil {
				cold = append(cold, *c)
			}
		}
	} else {
		ev.stats.ClimbsReused += len(cold)
	}
	cands := cold[:len(cold):len(cold)] // capped: appending copies, cold stays as returned

	if !opt.SkipDirect {
		budget := opt.DirectFevals
		if polish {
			budget = opt.PolishFevals
		}
		var assign []int
		var derr error
		assign, run.direct, resumed, derr = ev.globalSearch(ctx, K, budget, prev.direct)
		if derr == nil {
			cands = append(cands, ev.hillClimb(ctx, assign, K))
		}
	}

	best = cands[0]
	for _, c := range cands[1:] {
		if c.better(best) {
			best = c
		}
	}
	run.cold = cold
	return best, run, resumed
}

// globalSearch is DIRECT over the compact encoding — one continuous variable
// per unit in [0, K), floor() gives the machine index — up to budget
// evaluations in all, and returns the best sample decoded. search, unless it
// is nil or has spent more than the budget, is continued on this evaluator:
// the resumed samples it holds are the ones a new search would draw first.
// The search used comes back for the next run at K.
func (ev *Evaluator) globalSearch(ctx context.Context, K, budget int, search *direct.Search) (assign []int, _ *direct.Search, resumed int, err error) {
	nU := len(ev.units)
	if search == nil || search.Fevals() > budget {
		lower := make([]float64, nU)
		upper := make([]float64, nU)
		for i := range upper {
			upper[i] = float64(K)
		}
		if search, err = direct.NewSearch(lower, upper, direct.Options{Epsilon: 1e-4}); err != nil {
			return nil, nil, 0, err
		}
	}
	resumed = search.Fevals()
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
	// The objective prices on ev: a probe may have priced its samples on a
	// clone, the run that continues its search prices here.
	tmp := make([]int, nU)
	res, err := search.Run(ctx, func(x []float64) float64 {
		o, _ := ev.Eval(decode(x, tmp), K)
		return o
	}, budget)
	if err != nil {
		return nil, search, resumed, err
	}
	return decode(res.X, make([]int, nU)), search, resumed, nil
}

// hillClimb is deterministic best-improvement local search — the
// "polishing" phase of Section 6 — with single-unit moves plus 2-exchange
// swap sweeps. Candidate moves are priced in O(T) against the incremental
// LoadState, so a full move sweep costs O(U·K·T) and a swap sweep O(U²·T),
// instead of the O(·units-per-server·T) factor a scratch re-aggregation
// needs per candidate.
func (ev *Evaluator) hillClimb(ctx context.Context, assign []int, K int) climbed {
	return ev.hillClimbMig(ctx, assign, K, 100, nil)
}

// hillClimbMig is the full local search with an explicit sweep budget (the
// sharded solver's cross-shard rebalance pass uses a small one) and, when
// mig is non-nil, warm-restart migration pricing (Resolve). The final plan
// is re-priced through the canonical Eval, so the incremental pricing never
// drifts into the result.
func (ev *Evaluator) hillClimbMig(ctx context.Context, assign []int, K int, maxRounds int, mig *migration) climbed {
	ls := NewLoadState(ev, assign, K)
	ev.climb(ctx, ls, maxRounds, mig, newScanMemo(ls, mig))
	cur := ls.Assignment()
	obj, feas := ev.Eval(cur, K)
	return climbed{cur, obj, feas}
}

// climb runs rounds of single-unit move sweeps on ls, falling back to a
// 2-exchange swap sweep whenever moves stall — swaps escape the local optima
// single-unit moves cannot (two units that should trade places but neither
// fits alongside the other). Accepted moves and swaps re-materialize the
// touched machines' sums canonically inside LoadState. Deterministic: sweep
// order is fixed and independent of worker counts. A nil memo re-prices
// every candidate in every sweep; the accepted sequence is the same.
func (ev *Evaluator) climb(ctx context.Context, ls *LoadState, maxRounds int, mig *migration, memo *scanMemo) {
	ev.stats.Climbs++
	for rounds := 0; rounds < maxRounds && ctx.Err() == nil; rounds++ {
		t0 := time.Now()
		moved := ev.sweepMoves(ctx, ls, mig, memo)
		t1 := time.Now()
		ev.stats.MoveSweepTime += t1.Sub(t0)
		if !moved {
			swapped := ev.sweepSwaps(ctx, ls, mig, memo)
			ev.stats.SwapSweepTime += time.Since(t1)
			if !swapped {
				break
			}
		}
	}
}

// scanMemo is what one climb remembers about its fruitless scans: moves[u]
// and swaps[u] are the LoadState change clock at which unit u's last move
// scan and last swap scan ended with nothing accepted (0 = never). Such a
// scan compared every candidate's delta with the fixed −1e-9 threshold and
// found it no better; a candidate's delta reads only its two machines, so
// while neither has changed since (LoadState.changed) the next scan
// would compute the same delta from the same state and reject it again, and
// skips it. When the unit's own machine changed, every candidate's delta
// did, and the scan is a full one.
type scanMemo struct {
	moves, swaps []uint64
}

// newScanMemo returns the memo for a climb over ls, or nil — skip nothing —
// under a migration cap: allows() then reads the fleet-wide away count, so a
// candidate between two untouched machines can turn from refused to allowed.
func newScanMemo(ls *LoadState, mig *migration) *scanMemo {
	if mig != nil && mig.limit > 0 {
		return nil
	}
	n := ls.NumUnits()
	return &scanMemo{moves: make([]uint64, n), swaps: make([]uint64, n)}
}

// bestMove returns unit u's best strictly-improving destination machine
// under the current LoadState (and optional migration pricing), or u's
// current machine when no move improves. Destinations that, like u's own
// machine, have not changed since `since` — the clock of a scan of u that
// found nothing — are skipped; pass 0 to price them all. Counts one Feval
// per candidate considered. Shared by the move sweeps and the warm-seed
// placement of units with no incumbent. TestSweepsAllocationFree pins it at
// zero allocations.
func (ev *Evaluator) bestMove(ls *LoadState, u int, mig *migration, since uint64) int {
	from := ls.Assign(u)
	rescan := ls.changed[from] > since
	cFromNew, removed, exact := 0.0, false, false
	bestJ := from
	bestDelta := -1e-9 // strict improvement required
	screen := ls.Screened()
	for j := 0; j < ls.K(); j++ {
		if j == from {
			continue
		}
		if !rescan && ls.changed[j] <= since {
			ev.stats.Skipped++
			continue
		}
		if !mig.allows(mig.awayDelta(u, from, j)) {
			continue
		}
		if !removed {
			// Priced on first use: a unit none of whose machines changed
			// never needs it. The screen bounds it first (boundRemove).
			removed = true
			if screen {
				cFromNew = ls.boundRemove(u)
			} else {
				cFromNew, exact = ls.PriceRemove(u), true
			}
		}
		// Fevals counts candidates considered, screened or exactly priced,
		// so its semantics (and every warm-vs-cold comparison built on it)
		// are independent of the coarse screen.
		ev.Fevals++
		ev.stats.Considered++
		base, migU := ls.Contrib(from)+ls.Contrib(j), mig.delta(u, from, j)
		if screen {
			// Coarse-to-fine, cheapest first: the lower bound on the
			// destination's new contribution from its overall peak steps and
			// the unit's own, then from its whole sample, prunes candidates
			// that provably cannot beat the best delta so far. Each check is
			// the exact delta expression with lower bounds on PriceAdd and
			// PriceRemove substituted (the rest stage's, above the first's,
			// runs again on the exact removal), so pruned candidates are
			// exactly ones the exact pricing would have rejected.
			var sc sideScreen
			var b sideBound
			rm := sideBound{lo: cFromNew, exact: true}
			ls.screenAddFirst(&sc, u, j)
			if prunes(&rm, ls.bracket(&b, &sc, j), base, migU, 0, bestDelta) {
				continue
			}
			ls.screenAddRest(&sc, u, j)
			if prunes(&rm, ls.bracket(&b, &sc, j), base, migU, 0, bestDelta) {
				continue
			}
			if !exact {
				cFromNew, exact = ls.PriceRemove(u), true
				if rm.lo = cFromNew; prunes(&rm, &b, base, migU, 0, bestDelta) {
					continue
				}
			}
		}
		ev.stats.Priced++
		delta := (cFromNew + ls.PriceAdd(u, j)) - base + migU
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
func (ev *Evaluator) sweepMoves(ctx context.Context, ls *LoadState, mig *migration, memo *scanMemo) bool {
	ev.stats.Sweeps++
	improved := false
	for u := 0; u < ls.NumUnits(); u++ {
		if ctx.Err() != nil {
			return false
		}
		if ev.pin[u] >= 0 {
			continue
		}
		from := ls.Assign(u)
		var since uint64
		if memo != nil {
			since = memo.moves[u]
		}
		if bestJ := ev.bestMove(ls, u, mig, since); bestJ != from {
			mig.note(mig.awayDelta(u, from, bestJ))
			ls.Move(u, bestJ)
			improved = true
		} else if memo != nil {
			memo.moves[u] = ls.clock
		}
	}
	return improved
}

// sweepSwaps runs one best-improvement sweep of 2-exchange swaps: for every
// unit, the best partner on another machine is found by pricing both sides
// of the exchange as two O(T) LoadState deltas, and the best strictly
// improving swap per unit is applied immediately. Partners whose machine,
// like the unit's own, has not changed since the unit's last fruitless swap
// scan are skipped. Reports whether any swap was applied. A cancelled ctx
// stops the sweep between units.
func (ev *Evaluator) sweepSwaps(ctx context.Context, ls *LoadState, mig *migration, memo *scanMemo) bool {
	ev.stats.Sweeps++
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
		var since uint64
		if memo != nil {
			since = memo.swaps[u]
		}
		rescan := ls.changed[a] > since
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
			if !rescan && ls.changed[b] <= since {
				ev.stats.Skipped++
				continue
			}
			if !mig.allows(mig.awayDelta(u, a, b) + mig.awayDelta(v, b, a)) {
				continue
			}
			ev.Fevals++ // candidates considered, screened or priced
			ev.stats.Considered++
			// The exact delta is (nu + nv) − base + migU + migV, grouped left
			// to right; every bound delta below has the same shape with a
			// lower bound in place of nu or nv, so it cannot exceed the exact
			// one and a candidate it prunes is one the exact pricing would
			// have rejected.
			base := ls.Contrib(a) + ls.Contrib(b)
			migU, migV := mig.delta(u, a, b), mig.delta(v, b, a)
			var nu, nv float64
			if screen {
				// Coarse-to-fine, cheapest first. The first stage of u's
				// side alone (the other side contributes at least
				// exp(0) = 1), then beside the first stage of v's side, then
				// both sides over their whole samples. Then u's side priced
				// exactly beside v's bound, and only then v's side.
				var su, sv sideScreen
				var bu, bv sideBound
				one := sideBound{lo: 1, exact: true}
				ls.screenExchangeFirst(&su, a, u, v)
				if prunes(ls.bracket(&bu, &su, a), &one, base, migU, migV, bestDelta) {
					continue
				}
				ls.screenExchangeFirst(&sv, b, v, u)
				if prunes(&bu, ls.bracket(&bv, &sv, b), base, migU, migV, bestDelta) {
					continue
				}
				ls.screenExchangeRest(&su, a, u, v)
				ls.screenExchangeRest(&sv, b, v, u)
				if prunes(ls.bracket(&bu, &su, a), ls.bracket(&bv, &sv, b), base, migU, migV, bestDelta) {
					continue
				}
				ev.stats.Priced++
				nu = ls.priceExchange(a, u, v)
				pu := sideBound{lo: nu, exact: true}
				if prunes(&pu, &bv, base, migU, migV, bestDelta) {
					continue
				}
				ev.stats.Priced++
				nv = ls.priceExchange(b, v, u)
			} else {
				ev.stats.Priced += 2
				nu, nv = ls.PriceSwap(u, v)
			}
			delta := (nu + nv) - base + migU + migV
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
		} else if memo != nil {
			memo.swaps[u] = ls.clock
		}
	}
	return improved
}
