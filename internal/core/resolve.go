package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"kairos/internal/cpu"
)

// This file implements rolling re-consolidation: warm-started re-solves
// that reuse the previous plan instead of solving from greedy/round-robin
// seeds every time. The paper's consolidation is a one-shot solve, but its
// own premise — workloads drift week to week (Section 4's forecasting) —
// means a production fleet is re-consolidated continuously. A good re-solve
// starts from the incumbent plan, charges for migrations rather than
// ignoring them, and only then polishes (the rolling re-provisioning
// concern of WiSeDB and of database-agnostic workload management).

// Incumbent is a previously computed consolidation plan in a durable form:
// it can be saved, reloaded in a later process, and used to warm-start
// Resolve against a drifted version of the fleet. Units are identified by
// workload name (plus replica number) so the mapping survives workloads
// being reordered, added or removed between runs; the index at save time is
// kept as a fallback for unnamed fleets.
type Incumbent struct {
	// K is the machine count of the incumbent plan.
	K int `json:"k"`
	// Units records where each placement unit ran.
	Units []IncumbentUnit `json:"units"`
}

// IncumbentUnit is one placement of an Incumbent.
type IncumbentUnit struct {
	// Workload names the unit's workload. Matching across runs is by name
	// when every workload name in the new problem is unique and non-empty,
	// by Index otherwise.
	Workload string `json:"workload"`
	// Index is the workload's index at the time the plan was computed.
	Index int `json:"index"`
	// Replica is the unit's replica number.
	Replica int `json:"replica"`
	// Machine is the machine index the unit was assigned to.
	Machine int `json:"machine"`
	// MachineName names that machine (empty for unnamed machine lists).
	// Matching across runs prefers the name when both sides carry unique
	// non-empty machine names, so a reordered machine list cannot silently
	// seed units onto different hardware.
	MachineName string `json:"machine_name,omitempty"`
}

// IncumbentFromSolution captures a solution of problem p as an incumbent
// plan for later warm-started re-solves.
func IncumbentFromSolution(p *Problem, sol *Solution) *Incumbent {
	inc := &Incumbent{K: sol.K, Units: make([]IncumbentUnit, len(sol.Assign))}
	for i, j := range sol.Assign {
		ref := sol.Units[i]
		inc.Units[i] = IncumbentUnit{
			Workload: p.Workloads[ref.Workload].Name,
			Index:    ref.Workload,
			Replica:  ref.Replica,
			Machine:  j,
		}
		if j >= 0 && j < len(p.Machines) {
			inc.Units[i].MachineName = p.Machines[j].Name
		}
	}
	return inc
}

// Save writes the incumbent as indented JSON (the `kairos consolidate
// -save-plan` format).
func (inc *Incumbent) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(inc)
}

// LoadIncumbent reads an incumbent saved by Save.
func LoadIncumbent(r io.Reader) (*Incumbent, error) {
	var inc Incumbent
	if err := json.NewDecoder(r).Decode(&inc); err != nil {
		return nil, fmt.Errorf("core: decoding incumbent plan: %w", err)
	}
	if inc.K <= 0 || len(inc.Units) == 0 {
		return nil, fmt.Errorf("core: incumbent plan is empty (k=%d, %d units)", inc.K, len(inc.Units))
	}
	return &inc, nil
}

// DefaultResolveOptions returns the standard warm-restart knobs: a small
// migration weight so plans stay sticky under drift without freezing.
func DefaultResolveOptions() SolveOptions {
	o := DefaultSolveOptions()
	o.MigrationWeight = 0.05
	return o
}

// migration is the warm-restart pricing context threaded through the hill
// climb: the incumbent machine per unit, the per-unit cost charged while a
// unit sits away from its incumbent, and an optional cap on how many units
// may be away at once. All methods are nil-receiver safe — a nil *migration
// (cold solves) prices and permits everything as before.
type migration struct {
	// home[u] is unit u's incumbent machine, or -1 for units with no
	// incumbent (new workloads, or incumbents outside the current K).
	home []int
	// cost[u] is the objective charge while u is away from home[u].
	cost []float64
	// limit caps the number of units away from home (0 = unlimited).
	limit int
	// away counts units currently away from home; kept in lockstep with
	// accepted moves via note().
	away int
}

// delta returns the migration-cost change of moving unit u from→to.
func (m *migration) delta(u, from, to int) float64 {
	if m == nil || m.cost == nil {
		return 0
	}
	switch h := m.home[u]; {
	case h < 0:
		return 0
	case from == h:
		return m.cost[u]
	case to == h:
		return -m.cost[u]
	}
	return 0
}

// awayDelta returns how the away count changes if unit u moves from→to.
func (m *migration) awayDelta(u, from, to int) int {
	if m == nil {
		return 0
	}
	switch h := m.home[u]; {
	case h < 0:
		return 0
	case from == h:
		return 1
	case to == h:
		return -1
	}
	return 0
}

// allows reports whether a move changing the away count by d fits the cap.
func (m *migration) allows(d int) bool {
	return m == nil || m.limit <= 0 || m.away+d <= m.limit
}

// note records an accepted move's away-count change.
func (m *migration) note(d int) {
	if m != nil {
		m.away += d
	}
}

// syncAway recomputes the away count from an assignment (used after passes
// that bypass the climb's bookkeeping, like machine-count reduction).
func (m *migration) syncAway(assign []int) {
	if m == nil {
		return
	}
	m.away = 0
	for u, h := range m.home {
		if h >= 0 && assign[u] != h {
			m.away++
		}
	}
}

// tally returns the migration count and total cost of a final assignment.
func (m *migration) tally(assign []int) (migrated int, cost float64) {
	if m == nil {
		return 0, 0
	}
	for u, h := range m.home {
		if h >= 0 && assign[u] != h {
			migrated++
			if m.cost != nil {
				cost += m.cost[u]
			}
		}
	}
	return migrated, cost
}

// newMigration builds the migration context for a warm re-solve. Unit
// migration costs scale with the unit's peak working set (its RAM peak when
// the problem carries no working-set series) relative to the fleet mean, so
// moving a heavy database costs proportionally more than a light one.
func (ev *Evaluator) newMigration(home []int, opt SolveOptions) *migration {
	m := &migration{home: home, limit: opt.MaxMigrations}
	if opt.MigrationWeight > 0 {
		nU := len(ev.units)
		sizes := make([]float64, nU)
		var mean float64
		for u := 0; u < nU; u++ {
			peak := 0.0
			for _, v := range ev.ws[u] {
				if v > peak {
					peak = v
				}
			}
			if peak == 0 {
				for _, v := range ev.ram[u] {
					if v > peak {
						peak = v
					}
				}
			}
			sizes[u] = peak * ev.scale[u]
			mean += sizes[u]
		}
		mean /= float64(nU)
		m.cost = make([]float64, nU)
		for u := range m.cost {
			if mean > 0 {
				m.cost[u] = opt.MigrationWeight * sizes[u] / mean
			} else {
				m.cost[u] = opt.MigrationWeight
			}
		}
	}
	return m
}

// clampIncumbentK maps an incumbent plan's machine count onto the current
// problem: clamped to the machines that exist, at least 1, and raised past
// every pin (Validate guarantees pin < len(p.Machines)). Resolve and
// PriceIncumbent share it so the stale-plan pricing and the warm re-solve
// always start from the same K.
func (ev *Evaluator) clampIncumbentK(p *Problem, incK int) int {
	K := incK
	if maxK := len(p.Machines); K > maxK {
		K = maxK
	}
	if K < 1 {
		K = 1
	}
	for _, pin := range ev.pin {
		if pin >= K {
			K = pin + 1
		}
	}
	return K
}

// warmSeed maps the incumbent plan onto the current problem's units: each
// matched unit starts on its incumbent machine (its "home"), and units with
// no usable incumbent — new workloads, extra replicas, or incumbents on
// machines that no longer exist — are placed one by one on whichever
// machine prices cheapest. Workloads are matched by name (falling back to
// index for unnamed fleets), and incumbent machines likewise remap by
// machine name when both sides carry unique non-empty names, so reordering
// either list between runs cannot seed units onto different hardware.
// Returns the seed assignment and the per-unit home array (-1 for the free
// units). Pins always win over incumbents: a pinned unit's home IS its pin,
// so forced pin changes are never priced or capped as migrations.
func (ev *Evaluator) warmSeed(p *Problem, inc *Incumbent, K int) (seed, home []int) {
	byName := make(map[string]int, len(p.Workloads))
	uniqueNames := true
	for i, w := range p.Workloads {
		if w.Name == "" {
			uniqueNames = false
			break
		}
		if _, dup := byName[w.Name]; dup {
			uniqueNames = false
			break
		}
		byName[w.Name] = i
	}
	machByName := make(map[string]int, len(p.Machines))
	machNamesUnique := true
	for j, m := range p.Machines {
		if m.Name == "" {
			machNamesUnique = false
			break
		}
		if _, dup := machByName[m.Name]; dup {
			machNamesUnique = false
			break
		}
		machByName[m.Name] = j
	}
	unitIndex := make(map[UnitRef]int, len(ev.units))
	for gi, un := range ev.units {
		unitIndex[UnitRef{Workload: un.w, Replica: un.replica}] = gi
	}

	home = make([]int, len(ev.units))
	for u := range home {
		home[u] = -1
	}
	for _, iu := range inc.Units {
		w := iu.Index
		if uniqueNames {
			found, ok := byName[iu.Workload]
			if !ok {
				continue // workload removed since the incumbent plan
			}
			w = found
		} else if w < 0 || w >= len(p.Workloads) {
			continue
		}
		gi, ok := unitIndex[UnitRef{Workload: w, Replica: iu.Replica}]
		if !ok {
			continue // replica count shrank
		}
		m := iu.Machine
		if machNamesUnique && iu.MachineName != "" {
			found, ok := machByName[iu.MachineName]
			if !ok {
				continue // machine removed since the incumbent plan
			}
			m = found
		}
		if m < 0 || m >= K {
			continue // incumbent machine outside the current range
		}
		home[gi] = m
	}
	// A pinned unit's placement is not a churn decision: its home is its
	// pin, so a pin that changed since the incumbent plan neither charges
	// migration cost nor consumes the MaxMigrations budget.
	for u := range home {
		if ev.pin[u] >= 0 {
			home[u] = ev.pin[u]
		}
	}

	seed = make([]int, len(ev.units))
	var free []int
	for u := range seed {
		switch {
		case home[u] >= 0:
			seed[u] = home[u]
		default:
			seed[u] = 0
			free = append(free, u)
		}
	}
	if len(free) == 0 {
		return seed, home
	}
	// Place the free units greedily against the warm state: each takes the
	// single-unit move that prices cheapest from its provisional slot on
	// machine 0. Deterministic (unit order, then machine order).
	ls := NewLoadState(ev, seed, K)
	for _, u := range free {
		if j := ev.bestMove(ls, u, nil, 0); j != ls.Assign(u) {
			ls.Move(u, j)
		}
	}
	return ls.Assignment(), home
}

// PriceIncumbent evaluates an incumbent plan against problem p without
// re-solving: units are matched to their incumbent machines exactly as
// Resolve's warm seed does (by workload name with index fallback, machine
// names remapped when unique), unmatched units are placed greedily, and
// the resulting assignment is priced once with the canonical objective.
// It answers "how good is the current plan on this (drifted or forecast)
// fleet?" — the before side of a re-consolidation decision — at the cost
// of one evaluation instead of a solve. The returned K is the incumbent's
// machine count clamped the same way Resolve clamps it. Resolve reports the
// same price as Solution.SeedObjective and SeedFeasible.
func PriceIncumbent(p *Problem, inc *Incumbent) (obj float64, feasible bool, K int, err error) {
	if inc == nil || inc.K <= 0 || len(inc.Units) == 0 {
		return 0, false, 0, fmt.Errorf("core: PriceIncumbent needs a non-empty incumbent plan")
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		return 0, false, 0, err
	}
	K = ev.clampIncumbentK(p, inc.K)
	seed, _ := ev.warmSeed(p, inc, K)
	obj, feasible = ev.Eval(seed, K)
	return obj, feasible, K, nil
}

// SolutionFromIncumbent materializes an incumbent plan as a full Solution
// against problem p without solving: units map to their incumbent
// machines exactly as Resolve's warm seed does, unmatched units place
// greedily, and the assignment is priced once. It is the recovery path's
// way of rebuilding a published plan from its durable form — the solve
// that produced the incumbent already ran before the crash, so replay
// must reconstruct its outcome, not repeat its search.
func SolutionFromIncumbent(p *Problem, inc *Incumbent) (*Solution, error) {
	if inc == nil || inc.K <= 0 || len(inc.Units) == 0 {
		return nil, fmt.Errorf("core: SolutionFromIncumbent needs a non-empty incumbent plan")
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	K := ev.clampIncumbentK(p, inc.K)
	seed, _ := ev.warmSeed(p, inc, K)
	obj, feasible := ev.Eval(seed, K)
	return &Solution{
		Assign:    seed,
		Units:     ev.Units(),
		K:         K,
		Feasible:  feasible,
		Objective: obj,
		Loads:     ev.Report(seed, K),
		Fevals:    1,
	}, nil
}

// Resolve computes a consolidation plan for p warm-started from an
// incumbent plan (rolling re-consolidation): the solver seeds from the
// incumbent's placements, prices migrations into the hill climb per
// SolveOptions.MigrationWeight/MaxMigrations, and polishes with the same
// move+swap local search Solve uses — no DIRECT run, no binary search over
// K. When no migration cap is set, the cold seeds (greedy packing and
// round-robin) also enter as candidates, a safety net: at MigrationWeight
// 0 their climbs are solveK's, so a warm re-solve never returns a worse
// plan than the cold local-search path at the same machine count. With
// migration pricing they are climbed under it too, so the combined plan
// (objective plus migration cost) beats those climbs, not the cold path's
// plan, and the incumbent-seeded plan wins unless re-packing truly earns
// its churn. On a mildly drifted fleet this matches the cold solve's plan
// quality with far fewer objective evaluations, migrating only the units
// that pay for their move.
//
// The machine count starts at the incumbent's K (clamped to the available
// machines), grows one machine at a time while the plan is infeasible, and
// — when machines are interchangeable and no migration cap is set —
// shrinks through the same reduction pass the sharded merge uses.
// Solution.Objective is the canonical consolidation objective (no
// migration term), so warm and cold plans are directly comparable;
// Solution.Migrated and Solution.MigrationCost report the migration side.
// The candidate climbs take the helpers the CPU budget has free and are
// folded in seed order: plan, Fevals and counters (EvalPriced and
// EvalReused apart) are the same whatever ran where. Cancelling ctx aborts
// the re-solve between pricing units and returns ctx.Err().
func Resolve(ctx context.Context, p *Problem, inc *Incumbent, opt SolveOptions) (*Solution, error) {
	start := time.Now()
	if inc == nil || inc.K <= 0 || len(inc.Units) == 0 {
		return nil, fmt.Errorf("core: Resolve needs a non-empty incumbent plan")
	}
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	return ev.resolve(ctx, inc, opt, start)
}

// resolve is Resolve on a fresh evaluator of the problem.
func (ev *Evaluator) resolve(ctx context.Context, inc *Incumbent, opt SolveOptions, start time.Time) (*Solution, error) {
	p := ev.p
	maxK := len(p.Machines)
	K := ev.clampIncumbentK(p, inc.K)

	seed, home := ev.warmSeed(p, inc, K)
	seedObj, seedFeas := ev.eval(seed, K)
	mig := ev.newMigration(home, opt)
	const rounds = 100

	type cand struct {
		climbed
		stats CandidateStats
	}
	// The warm seed, then — unless a migration cap rules them out, as they
	// start fully migrated — solveK's two cold seeds as a safety net, each
	// built and climbed by one worker with its own away count: a function
	// of its seed alone, whatever runs beside it. The round-robin climb, the
	// longest, is listed first, so that a helper takes it.
	order := []int{0}
	if opt.MaxMigrations <= 0 {
		order = []int{2, 0, 1}
	}
	cands := make([]*cand, len(order))
	evs := ev.fork(len(order))
	cpu.Do(len(order), func(w, item int) {
		i, ce, m := order[item], evs[w], *mig
		t0, f0 := time.Now(), ce.Fevals
		from := seed
		if i > 0 {
			from = ce.coldSeed(i-1, K)
		}
		if from != nil {
			m.syncAway(from)
			c := ce.hillClimbMig(ctx, from, K, rounds, &m)
			_, cost := m.tally(c.assign)
			cands[i] = &cand{c, CandidateStats{Seed: [...]string{"warm", "greedy", "round-robin"}[i],
				Fevals: ce.Fevals - f0, Elapsed: time.Since(t0), Feasible: c.feas, Combined: c.obj + cost}}
		}
	})
	ev.join(evs)
	// The choice is folded in seed order.
	var best *cand
	for _, c := range cands {
		if c != nil && (best == nil || (c.feas && !best.feas) || (c.feas == best.feas && c.stats.Combined < best.stats.Combined)) {
			best = c
		}
	}
	best.stats.Chosen = true
	for _, c := range cands {
		if c != nil {
			ev.stats.Candidates = append(ev.stats.Candidates, c.stats)
		}
	}
	plan := best.climbed

	// Drift can make the incumbent K infeasible; grow until the climb finds
	// a feasible plan (fresh machines start empty, so the next climb can
	// offload the violating units onto them).
	for !plan.feas && K < maxK {
		K++
		mig.syncAway(plan.assign)
		plan = ev.hillClimbMig(ctx, plan.assign, K, rounds, mig)
	}
	// Drift the other way can free a machine; reclaim it with the reduction
	// pass when machines are interchangeable. Reduction relocates whole
	// machines, so it only runs without a migration cap.
	if plan.feas && opt.MaxMigrations <= 0 && p.HomogeneousMachines() {
		if reduced, rk := ev.reduceK(plan.assign, K); rk < K {
			K = rk
			mig.syncAway(reduced)
			plan = ev.hillClimbMig(ctx, reduced, K, rounds, mig)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sol := ev.finish(plan, K, start)
	sol.Migrated, sol.MigrationCost = mig.tally(plan.assign)
	sol.SeedObjective, sol.SeedFeasible = seedObj, seedFeas
	return sol, nil
}
