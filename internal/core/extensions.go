package core

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// This file implements the extensions the paper sketches but does not
// evaluate:
//
//   - latency-oriented SLAs ("Extending the system to support latency-based
//     SLAs would make an interesting future extension of our work",
//     Section 1): a per-workload cap on the utilization of whichever
//     machine hosts it, derived from an M/G/1-style queueing bound;
//   - per-replica load scaling ("if the input workloads are already
//     replicated, we can use the actual load of the replicas", Section 5),
//     applied once in NewEvaluator: a replica's demand series are stored
//     scaled, so every pricer, the fractional bound and the greedy order
//     read the load the replica really adds;
//   - pre-grouped solving for very large inventories ("a possible way to
//     scale our solutions to handle tens of thousands of databases consists
//     in pre-grouping the input workloads, and solve the multiple
//     consolidation problems independently", Section 7.5).

// LatencySLA caps the queueing-induced latency inflation a workload will
// tolerate after consolidation.
type LatencySLA struct {
	// MaxSlowdown is the acceptable service-time multiplication factor
	// (≥ 1). Under M/G/1-style queueing the response time scales with
	// 1/(1−ρ), so a slowdown bound S implies the hosting machine must stay
	// below utilization ρ ≤ 1 − 1/S.
	MaxSlowdown float64
}

// MaxUtilization converts the SLA into the highest machine utilization that
// still honours it.
func (s LatencySLA) MaxUtilization() float64 {
	if s.MaxSlowdown <= 1 {
		return 0
	}
	return 1 - 1/s.MaxSlowdown
}

// slaCap returns the utilization cap a member set imposes on its machine:
// the strictest SLA of any member (1 if none declare SLAs). The per-unit
// caps are precomputed in NewEvaluator so this stays a flat scan.
func (ev *Evaluator) slaCap(members []int) float64 {
	cap := 1.0
	for _, u := range members {
		if c := ev.slaCapU[u]; c < cap {
			cap = c
		}
	}
	return cap
}

// Grouping controls SolvePartitioned.
type Grouping struct {
	// GroupSize is the number of workloads per independently-solved group.
	GroupSize int
	// Options are the per-group solver options.
	Options SolveOptions
}

// PartitionedSolution aggregates the per-group plans of SolvePartitioned.
type PartitionedSolution struct {
	// Groups holds each group's solution, in group order.
	Groups []*Solution
	// GroupWorkloads maps each group to the original workload indices it
	// contains.
	GroupWorkloads [][]int
	// K is the total machine count across groups.
	K int
	// Feasible reports whether every group solved feasibly.
	Feasible bool
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
}

// ConsolidationRatio mirrors Solution.ConsolidationRatio.
func (ps *PartitionedSolution) ConsolidationRatio(originalServers int) float64 {
	if ps.K == 0 {
		return 0
	}
	return float64(originalServers) / float64(ps.K)
}

// SolvePartitioned splits the workloads into fixed-size groups, solves each
// group against its own slice of machines, and concatenates the plans. It
// trades a little consolidation quality (co-location opportunities across
// groups are never considered) for indefinite scalability — per Section
// 7.5, total work grows linearly in the number of groups. Each group takes
// machines from those the groups before it left, its fair share of each
// class first (newOrdered's canonical order, dealt over the groups still to
// solve); a group's machine indices index the list it was given.
//
// Pinning and explicit anti-affinity refer to global indices and are not
// supported here; replicas within one workload are. Cancelling ctx aborts
// the solve after the current group and returns ctx.Err().
func SolvePartitioned(ctx context.Context, p *Problem, g Grouping) (*PartitionedSolution, error) {
	start := time.Now()
	ev, _, err := newOrdered(p)
	if err != nil {
		return nil, err
	}
	p = ev.p
	if g.GroupSize <= 0 {
		return nil, fmt.Errorf("core: group size must be positive, got %d", g.GroupSize)
	}
	if len(p.AntiAffinity) > 0 {
		return nil, fmt.Errorf("core: explicit anti-affinity is not supported with partitioned solving")
	}
	for i, w := range p.Workloads {
		if w.PinTo >= 0 {
			return nil, fmt.Errorf("core: workload %d (%s) is pinned; pinning is not supported with partitioned solving", i, w.Name)
		}
	}

	var groups [][]Workload
	out := &PartitionedSolution{Feasible: true}
	for lo := 0; lo < len(p.Workloads); lo += g.GroupSize {
		hi := min(lo+g.GroupSize, len(p.Workloads))
		groups = append(groups, p.Workloads[lo:hi])
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		out.GroupWorkloads = append(out.GroupWorkloads, idx)
	}
	// Each group solves on the machines the groups before it left, its
	// share first: every n-th machine of each class, canonical order kept,
	// for the n groups still to solve, so the first groups do not take all
	// of a class the canonical order puts first. Its plan uses a prefix of
	// its list.
	left := make([]int, len(p.Machines))
	for j := range left {
		left[j] = j
	}
	for i, group := range groups {
		if len(left) == 0 {
			return nil, fmt.Errorf("core: ran out of machines after %d groups", i)
		}
		n := len(groups) - i
		var share, rest []int
		dealt := map[int32]int{}
		for _, j := range left {
			if dealt[ev.capClass[j]]%n == 0 {
				share = append(share, j)
			} else {
				rest = append(rest, j)
			}
			dealt[ev.capClass[j]]++
		}
		order := append(share, rest...)
		machines := make([]Machine, len(order))
		for k, j := range order {
			machines[k] = p.Machines[j]
		}
		gev, err := NewEvaluator(&Problem{Workloads: group, Machines: machines, Disk: p.Disk})
		var sol *Solution
		if err == nil {
			sol, err = gev.solve(ctx, g.Options, time.Now())
		}
		if err != nil {
			return nil, fmt.Errorf("core: group %d: %w", i, err)
		}
		out.Groups = append(out.Groups, sol)
		left = order[sol.K:]
		slices.Sort(left)
		out.K += sol.K
		out.Feasible = out.Feasible && sol.Feasible
	}
	out.Elapsed = time.Since(start)
	return out, nil
}
