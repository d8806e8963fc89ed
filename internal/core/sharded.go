package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"kairos/internal/cpu"
	"kairos/internal/floats"
)

// ShardOptions tunes SolveSharded.
type ShardOptions struct {
	// Shards is the number of correlation-aware partitions to solve
	// separately, at most one per workload; 1 or less is Solve.
	Shards int
	// Options tunes each shard's solver.
	Options SolveOptions
}

// rebalanceRounds bounds the cross-shard hill-climb sweeps of the merge.
const rebalanceRounds = 2

// SolveSharded consolidates fleet-scale inventories: it partitions the
// workloads into correlation-aware shards, solves the shards on the helpers
// the CPU budget has free, and merges the per-shard plans with a
// cross-shard rebalancing pass plus a machine-count reduction sweep. It
// trades a little per-shard optimality for near-linear scaling in the
// fleet size, then claws most of the quality back in the merge — unlike
// SolvePartitioned, the shards are chosen by load correlation rather than
// input order, and the final plan is polished globally.
//
// Sharding keys each workload by the correlation of its CPU profile to the
// fleet aggregate and deals the sorted workloads round-robin across shards,
// so every shard receives a representative mix of peak-aligned (hard to
// pack) and off-peak (complementary) workloads.
//
// Pinning and explicit anti-affinity refer to global machine/workload
// indices, so more than one shard rejects them, as SolvePartitioned does;
// per-workload replicas are fine because a workload's replicas always land
// in the same shard. The shards solve independently, as many at once as the
// CPU budget has cores free, and their plans are relabelled onto disjoint
// machine ranges, which needs interchangeable machines (one capacity
// class): a machine list of several classes is solved whole, as Solve does,
// since shards solved one after another would leave the later ones only
// the machines the earlier ones did not take. Cancelling ctx aborts every
// in-flight shard solve and the merge pass, returning ctx.Err().
func SolveSharded(ctx context.Context, p *Problem, opt ShardOptions) (*Solution, error) {
	nShards := min(opt.Shards, len(p.Workloads))
	if nShards <= 1 {
		return Solve(ctx, p, opt.Options)
	}
	start := time.Now()
	ev, o, err := newOrdered(p)
	if err != nil {
		return nil, err
	}
	p = ev.p
	if len(p.AntiAffinity) > 0 {
		return nil, fmt.Errorf("core: explicit anti-affinity is not supported with sharded solving")
	}
	for i, w := range p.Workloads {
		if w.PinTo >= 0 {
			return nil, fmt.Errorf("core: workload %d (%s) is pinned; pinning is not supported with sharded solving", i, w.Name)
		}
	}
	if !ev.oneClass {
		return o.out(ev.solve(ctx, opt.Options, start))
	}
	shards := correlationShards(p, nShards)

	groups := make([][]Workload, nShards)
	for i, shard := range shards {
		groups[i] = make([]Workload, len(shard))
		for k, w := range shard {
			groups[i][k] = p.Workloads[w]
		}
	}
	// Identical machines are interchangeable: every shard can solve against
	// the full list, on whichever worker of the CPU budget takes it, and be
	// relabelled onto its own machine range afterwards.
	plans := make([]*Solution, nShards)
	errs := make([]error, nShards)
	cpu.Do(nShards, func(_, i int) {
		plans[i], errs[i] = Solve(ctx, &Problem{Workloads: groups[i], Machines: p.Machines, Disk: p.Disk}, opt.Options)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", i, err)
		}
	}

	// Merge: relabel each shard's machines onto consecutive global ranges
	// and scatter its unit assignments into global unit order.
	unitIndex := make(map[UnitRef]int, len(ev.units))
	for gi, u := range ev.units {
		unitIndex[UnitRef{Workload: u.w, Replica: u.replica}] = gi
	}
	assign := make([]int, len(ev.units))
	K := 0
	fevals := 0
	var stats SolveStats // counters summed over shards and merge; no probe log
	for i, plan := range plans {
		off := K
		for su, j := range plan.Assign {
			ref := plan.Units[su]
			gi, ok := unitIndex[UnitRef{Workload: shards[i][ref.Workload], Replica: ref.Replica}]
			if !ok {
				return nil, fmt.Errorf("core: shard %d produced unknown unit %+v", i, ref)
			}
			assign[gi] = off + j
		}
		K += plan.K
		fevals += plan.Fevals
		stats.add(plan.Stats)
	}

	// Concurrent shards each solve against the full machine list, so their
	// combined K can overshoot the fleet even when a global plan fits —
	// exactly the slack the reduction pass below reclaims. Pad the
	// (identical) machine list so the oversized merge stays evaluable and
	// give reduction its chance before giving up.
	mergeEv := ev
	if K > len(p.Machines) {
		padded := *p
		padded.Machines = make([]Machine, K)
		for i := range padded.Machines {
			padded.Machines[i] = p.Machines[0]
		}
		mergeEv, err = NewEvaluator(&padded)
		if err != nil {
			return nil, err
		}
	}

	// Cross-shard merge: a bounded global hill climb moves units between
	// shards' machines — falling back to 2-exchange swap sweeps when
	// single-unit moves stall, which trades units across shard boundaries
	// even when neither fits alongside the other — then a reduction sweep
	// tries to empty the lightest machines entirely: the co-location
	// opportunities independent shard solves cannot see.
	if K > 0 {
		assign = mergeEv.hillClimbMig(ctx, assign, K, rebalanceRounds, nil, false).assign
		if reduced, rk := mergeEv.reduceK(assign, K); rk < K {
			// Reduction packs greedily; re-balance the tighter plan.
			K = rk
			assign = mergeEv.hillClimbMig(ctx, reduced, K, rebalanceRounds, nil, false).assign
		}
	}
	if K > len(p.Machines) {
		return nil, fmt.Errorf("core: sharded plan needs %d machines after merging but only %d exist", K, len(p.Machines))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obj, feas := ev.Eval(assign, K)
	if mergeEv != ev {
		fevals += mergeEv.Fevals
		stats.add(mergeEv.stats)
	}
	stats.add(ev.stats)
	return o.out(&Solution{
		Assign:     assign,
		Units:      ev.Units(),
		K:          K,
		Feasible:   feas,
		Objective:  obj,
		LowerBound: ev.FractionalLowerBound(),
		Loads:      ev.Report(assign, K),
		Fevals:     fevals + ev.Fevals,
		Stats:      stats,
		Elapsed:    time.Since(start),
	}, nil)
}

// correlationShards partitions workload indices into nShards groups.
// Workloads are ranked by the Pearson correlation of their CPU series to
// the fleet-wide aggregate (peak-aligned load first) and dealt round-robin,
// which spreads the mutually-correlated workloads — the ones that must not
// pile onto one machine — evenly across shards and gives each shard a
// comparable mix of complementary time profiles. Deterministic: ties break
// on the workload index.
func correlationShards(p *Problem, nShards int) [][]int {
	n := len(p.Workloads)
	T := p.Workloads[0].CPU.Len()
	agg := make([]float64, T)
	for i := range p.Workloads {
		for t, v := range p.Workloads[i].CPU.Values {
			agg[t] += v
		}
	}
	type ranked struct {
		w    int
		corr float64
	}
	rank := make([]ranked, n)
	for i := range p.Workloads {
		rank[i] = ranked{w: i, corr: pearson(p.Workloads[i].CPU.Values, agg)}
	}
	sort.SliceStable(rank, func(a, b int) bool {
		if !floats.Same(rank[a].corr, rank[b].corr) {
			return rank[a].corr > rank[b].corr
		}
		return rank[a].w < rank[b].w
	})
	shards := make([][]int, nShards)
	for i, r := range rank {
		s := i % nShards
		shards[s] = append(shards[s], r.w)
	}
	// Within a shard, keep the original workload order so sub-problem
	// construction (and therefore the solve) is independent of the ranking
	// details.
	for _, s := range shards {
		sort.Ints(s)
	}
	return shards
}

// pearson computes the correlation coefficient of two equal-length series
// (0 when either side is constant).
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

// reduceK tries to shrink the machine count of a merged plan: machines are
// visited lightest-first and each one's units are greedily relocated onto
// other machines; when a machine empties completely, the last machine's
// label is folded onto it and K drops. Relocation feasibility is priced in
// O(T) against the incremental LoadState (LoadState.CanPlace) instead of
// re-aggregating every member per candidate (the old FitsOneMachine
// pattern). Across machine classes a fold can overload its target, so the
// caller climbs the result before using it. Pins are kept: a machine that
// hosts a pinned unit is never emptied, and no fold relabels the last
// machine while it hosts one, so no pinned unit moves and K stays above
// every pin. Deterministic: visit order and placement order are fixed.
func (ev *Evaluator) reduceK(assign []int, K int) ([]int, int) {
	ls := NewLoadState(ev, assign, K)
	type mload struct {
		j    int
		load float64
	}
	pinned := func(j int) bool {
		return slices.ContainsFunc(ls.Members(j), func(u int) bool { return ev.pin[u] >= 0 })
	}
	for ls.K() > 1 && !pinned(ls.K()-1) {
		k := ls.K()
		// Rank machines lightest-first by normalized load (ties: higher
		// index first, so relabelling disturbs less).
		order := make([]mload, k)
		for j := 0; j < k; j++ {
			order[j] = mload{j, ls.NormLoad(j)}
		}
		sort.SliceStable(order, func(a, b int) bool {
			if !floats.Same(order[a].load, order[b].load) {
				return order[a].load < order[b].load
			}
			return order[a].j > order[b].j
		})
		reduced := false
		for _, cand := range order {
			j := cand.j
			if pinned(j) {
				continue
			}
			// Tentatively relocate every unit of machine j elsewhere; the
			// moves apply to the live state and are rolled back if any unit
			// fails to place. The shrinking source j is never priced
			// mid-trial, so its re-materialization is deferred: Fold retires
			// its state on success, the restore below rebuilds it on
			// failure. Destinations add each unit per move — later
			// CanPlace checks price against them.
			units := append([]int(nil), ls.Members(j)...)
			moved := make([]int, 0, len(units))
			placedAll := true
			for _, u := range units {
				placed := false
				for to := 0; to < k && !placed; to++ {
					if to == j {
						continue
					}
					if ls.CanPlace(u, to) {
						ls.move(u, to, false, true)
						moved = append(moved, u)
						placed = true
					}
				}
				if !placed {
					placedAll = false
					break
				}
			}
			if placedAll {
				ls.Fold(j)
				reduced = true
				break
			}
			// Roll back with all re-materialization deferred — nothing is
			// priced mid-rollback — then rebuild each touched machine once:
			// the trial hosts, and machine j restored to its original member
			// order so later pricing is bit-identical to the pre-trial
			// state.
			dirty := make([]bool, k)
			for i := len(moved) - 1; i >= 0; i-- {
				u := moved[i]
				dirty[ls.Assign(u)] = true
				ls.move(u, j, false, false)
			}
			ls.members[j] = append(ls.members[j][:0], units...)
			ls.rematerialize(j)
			for to := 0; to < k; to++ {
				if dirty[to] {
					ls.rematerialize(to)
				}
			}
		}
		if !reduced {
			break
		}
	}
	return ls.Assignment(), ls.K()
}
