package core

import (
	"context"
	"fmt"
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
// 7.5, total work grows linearly in the number of groups.
//
// Pinning and explicit anti-affinity refer to global indices and are not
// supported here; replicas within one workload are. Cancelling ctx aborts
// the solve after the current group and returns ctx.Err().
func SolvePartitioned(ctx context.Context, p *Problem, g Grouping) (*PartitionedSolution, error) {
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
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
	sols, err := solveInSequence(ctx, p, groups, "group", g.Options)
	if err != nil {
		return nil, err
	}
	out.Groups = sols
	for _, sol := range sols {
		out.K += sol.K
		out.Feasible = out.Feasible && sol.Feasible
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// solveInSequence solves groups of p's workloads one after another, each
// against the machines the groups before it left unused: a group's plan
// uses a prefix of the machines it is given. noun names a group in errors.
func solveInSequence(ctx context.Context, p *Problem, groups [][]Workload, noun string, opt SolveOptions) ([]*Solution, error) {
	sols := make([]*Solution, len(groups))
	next := 0
	for i, group := range groups {
		if next >= len(p.Machines) {
			return nil, fmt.Errorf("core: ran out of machines after %d %ss", i, noun)
		}
		sol, err := Solve(ctx, &Problem{Workloads: group, Machines: p.Machines[next:], Disk: p.Disk}, opt)
		if err != nil {
			return nil, fmt.Errorf("core: %s %d: %w", noun, i, err)
		}
		sols[i] = sol
		next += sol.K
	}
	return sols, nil
}
