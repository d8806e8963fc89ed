// Package core implements Kairos' consolidation engine (paper Sections 5
// and 6): the mixed-integer non-linear program that assigns database
// workloads to physical machines so that the number of machines is
// minimized and load is balanced, while no resource is over-committed at
// any point in time.
//
// The objective follows the paper: each used server contributes
// exp(normalized load), so any solution with k−1 servers beats any with k,
// and for a fixed k the most balanced solution wins. Constraints (CPU and
// RAM peaks, the non-linear disk model, replication anti-affinity, and
// pinning) enter as penalty terms, which is how the Tomlab DIRECT setup in
// the paper handles them (the "constraint violation penalty" spike of
// Figure 5).
//
// The solver pipeline is the paper's Section 6 optimization: a fractional
// single-resource lower bound and a greedy upper bound delimit a binary
// search on the server count K; each K is checked with a budgeted DIRECT
// run over a compact encoding plus deterministic hill-climb polish; the
// final K gets a longer polishing run.
package core

import (
	"fmt"
	"math"
	"time"

	"kairos/internal/model"
	"kairos/internal/series"
	units "kairos/internal/unit"
)

// Workload is one database's resource profile, the engine's unit of
// placement. All series must share the same length and step.
type Workload struct {
	// Name identifies the workload.
	Name string
	// CPU is the utilization over time as a fraction of the target
	// machine's CPU capacity (the paper normalizes heterogeneous
	// measurements to a 12-core "standard" machine before solving).
	CPU *series.Series
	// RAMBytes is the gauged working-set memory requirement over time.
	RAMBytes *series.Series
	// WSBytes is the working set driving the disk model (usually equal to
	// RAMBytes minus process overhead).
	WSBytes *series.Series
	// UpdateRate is the row-modification rate over time (rows/sec).
	UpdateRate *series.Series
	// DiskWriteBps is the measured standalone disk write rate; only the
	// naive baseline estimator uses it.
	DiskWriteBps *series.Series
	// Replicas is the number of copies to place on distinct machines
	// (0 is treated as 1). Each replica consumes the full profile — the
	// paper's conservative assumption.
	Replicas int
	// PinTo pins the workload's first replica to a machine index; -1
	// leaves it free.
	PinTo int
	// ReplicaLoadScale optionally scales each replica's resource demand:
	// entry r applies to replica r. Missing entries default to 1 — the
	// paper's conservative assumption that a replica consumes as much as
	// the primary; measured replica loads go here when available.
	ReplicaLoadScale []float64
	// SLA optionally bounds the latency slowdown the workload tolerates
	// after consolidation (the paper's suggested future extension); it
	// caps the utilization of whichever machine hosts the workload.
	SLA *LatencySLA
}

// Machine is one consolidation target.
type Machine struct {
	// Name identifies the machine.
	Name string
	// CPUCapacity is in target-machine units: 1.0 means exactly one
	// standard target machine.
	CPUCapacity units.TargetCPU
	// RAMBytes is the physical memory available to the DBMS.
	RAMBytes units.Bytes
	// DiskWriteBps is the disk write budget the machine can sustain,
	// measured in the same terms the disk profile predicts.
	DiskWriteBps units.Bps
	// Headroom is the fraction of every resource kept free as a safety
	// margin (the paper uses 5–10%).
	Headroom units.Frac
}

// capacity returns the usable capacity of a resource after headroom.
func (m Machine) capacity(raw float64) float64 { return raw * (1 - float64(m.Headroom)) }

// Problem is a complete consolidation instance.
type Problem struct {
	// Workloads to place.
	Workloads []Workload
	// Machines available, in any order: the solvers order them themselves
	// (newOrdered). Solution.Assign indexes this list.
	Machines []Machine
	// Disk is the target hardware's empirical profile; nil disables the
	// non-linear disk constraint (CPU/RAM only).
	Disk *model.DiskProfile
	// AntiAffinity lists workload-index pairs that must not share a
	// machine (beyond the automatic replica anti-affinity).
	AntiAffinity [][2]int
}

// unit is one placeable entity: a (workload, replica) pair.
type unit struct {
	w       int
	replica int
}

// Validate checks the problem for structural errors.
func (p *Problem) Validate() error {
	if len(p.Workloads) == 0 {
		return fmt.Errorf("core: no workloads")
	}
	if len(p.Machines) == 0 {
		return fmt.Errorf("core: no machines")
	}
	var step time.Duration
	var n int
	for i, w := range p.Workloads {
		if w.CPU == nil || w.RAMBytes == nil {
			return fmt.Errorf("core: workload %d (%s) missing CPU or RAM series", i, w.Name)
		}
		if i == 0 {
			step, n = w.CPU.Step, w.CPU.Len()
			if n == 0 {
				return fmt.Errorf("core: workload %d (%s) has empty series", i, w.Name)
			}
		}
		for _, s := range []*series.Series{w.CPU, w.RAMBytes, w.WSBytes, w.UpdateRate, w.DiskWriteBps} {
			if s == nil {
				continue
			}
			if s.Len() != n || s.Step != step {
				return fmt.Errorf("core: workload %d (%s) series shape mismatch", i, w.Name)
			}
		}
		if p.Disk != nil && (w.WSBytes == nil || w.UpdateRate == nil) {
			return fmt.Errorf("core: workload %d (%s) needs WSBytes and UpdateRate for the disk model", i, w.Name)
		}
		if w.Replicas > len(p.Machines) {
			return fmt.Errorf("core: workload %d (%s) wants %d replicas but only %d machines exist",
				i, w.Name, w.Replicas, len(p.Machines))
		}
		if w.PinTo >= len(p.Machines) {
			return fmt.Errorf("core: workload %d (%s) pinned to machine %d of %d",
				i, w.Name, w.PinTo, len(p.Machines))
		}
		// A scale multiplies every demand sample of its replica and an SLA
		// caps its machine: NaN or +Inf would poison every sum, and a NaN
		// slowdown would drop the cap, so the checks are phrased so NaN fails.
		for r, scale := range w.ReplicaLoadScale {
			if !(scale > 0) || math.IsInf(scale, 0) {
				return fmt.Errorf("core: workload %d (%s) replica %d load scale %v must be positive and finite",
					i, w.Name, r, scale)
			}
		}
		if w.SLA != nil && !(w.SLA.MaxSlowdown > 1) {
			return fmt.Errorf("core: workload %d (%s) SLA slowdown must exceed 1, got %v",
				i, w.Name, w.SLA.MaxSlowdown)
		}
	}
	// Machine capacities divide the objective's load terms: a zero,
	// negative, NaN or infinite capacity would turn contributions into
	// +Inf/NaN and poison every solver comparison, so reject them here
	// with a clear error. Note `v <= 0` alone would let NaN through —
	// the checks are phrased so NaN fails too.
	for j, m := range p.Machines {
		if !(m.CPUCapacity > 0) || math.IsInf(float64(m.CPUCapacity), 0) {
			return fmt.Errorf("core: machine %d (%s) CPU capacity %v must be positive and finite", j, m.Name, m.CPUCapacity)
		}
		if !(m.RAMBytes > 0) || math.IsInf(float64(m.RAMBytes), 0) {
			return fmt.Errorf("core: machine %d (%s) RAM capacity %v must be positive and finite", j, m.Name, m.RAMBytes)
		}
		if !(m.Headroom >= 0) || m.Headroom >= 1 {
			return fmt.Errorf("core: machine %d (%s) headroom %v outside [0,1)", j, m.Name, m.Headroom)
		}
		if p.Disk != nil && (!(m.DiskWriteBps > 0) || math.IsInf(float64(m.DiskWriteBps), 0)) {
			return fmt.Errorf("core: machine %d (%s) disk write budget %v must be positive and finite when a disk model is set", j, m.Name, m.DiskWriteBps)
		}
	}
	for _, pair := range p.AntiAffinity {
		for _, w := range pair {
			if w < 0 || w >= len(p.Workloads) {
				return fmt.Errorf("core: anti-affinity references workload %d of %d", w, len(p.Workloads))
			}
		}
	}
	return nil
}

// units expands workloads into placement units (one per replica).
func (p *Problem) units() []unit {
	var out []unit
	for w := range p.Workloads {
		r := p.Workloads[w].Replicas
		if r < 1 {
			r = 1
		}
		for k := 0; k < r; k++ {
			out = append(out, unit{w: w, replica: k})
		}
	}
	return out
}

// Solution is a consolidation plan.
type Solution struct {
	// Assign maps each unit to its machine's index in Problem.Machines.
	Assign []int
	// Units describes what each Assign slot places: Units[i] is
	// (workload index, replica number).
	Units []UnitRef
	// K is the number of machines used.
	K int
	// Feasible reports whether every constraint holds.
	Feasible bool
	// Objective is the final objective value (lower is better).
	Objective float64
	// LowerBound is the machine count no feasible plan can go below: the
	// fractional bound (Evaluator.FractionalLowerBound), which Solve raises
	// past the highest pinned machine and searches K from. K − LowerBound is
	// the gap the solver leaves unproven. Solve and SolveSharded set it;
	// Resolve leaves it 0.
	LowerBound int
	// Loads reports each of the K machines' aggregate demand, peaks and
	// balance under Assign, as Evaluator.Report prices them.
	Loads []ServerLoad
	// Fevals counts the work of the whole solve in objective evaluations:
	// assignments evaluated plus sweep candidates considered (see
	// Evaluator.Fevals).
	Fevals int
	// Stats itemizes that work and the repetition the solver avoided.
	Stats SolveStats
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// Migrated counts units placed away from their incumbent machine. Only
	// Resolve sets it; cold solves have no incumbent and leave it 0.
	Migrated int
	// MigrationCost is the total migration penalty charged by the warm
	// re-solve's objective (0 when MigrationWeight is 0 or for cold solves).
	MigrationCost float64
	// SeedObjective and SeedFeasible are Resolve's pricing of its warm seed,
	// PriceIncumbent's bit for bit and not counted in Fevals.
	SeedObjective float64
	SeedFeasible  bool
}

// SolveStats itemizes a solve's work and the repetition it avoided, as plain
// counters that repeat exactly from run to run and — EvalPriced and
// EvalReused apart — whatever ran on a helper.
type SolveStats struct {
	// Probes lists the machine counts Solve ran, in the order the search
	// consumed them, the final run at K' (and any walk upward) last.
	// SolveSharded and Resolve leave it empty.
	Probes []ProbeStats
	// Climbs counts hill climbs run, ClimbsReused the cold-seed climbs taken
	// from an earlier probe at the same K instead, Sweeps the move and swap
	// sweeps of all climbs.
	Climbs, ClimbsReused, Sweeps int
	// Considered counts sweep candidates screened or priced (part of
	// Fevals), Skipped those passed over because neither of their machines
	// had changed since they were last rejected (not part of it).
	Considered, Skipped int
	// Priced counts the exact O(T) pricings the sweeps ran for the
	// candidates the screen could not rule out: one per destination priced
	// by a move scan, one per machine side priced by a swap scan.
	Priced int
	// CapPruned counts the candidates the screen's capacity stage decided
	// (part of Considered): a receiving machine overflowing at one of its
	// two overall peak steps. Considered − CapPruned reached the staged
	// screen.
	CapPruned int
	// EvalPriced counts the machines Eval summed from scratch, EvalReused
	// those it answered from its table of machines already priced. The table
	// is keyed on a machine's capacity class, not its index: a member set
	// priced on one machine is found on any machine of identical CPU, RAM
	// and disk capacity. For Solve the two depend on scheduling — a
	// speculated probe, and a climb a helper took, price on a clone's own
	// table — so comparisons across core counts leave them out; the count
	// gate reads them at GOMAXPROCS 1, where nothing runs on a helper.
	EvalPriced, EvalReused int
	// GreedyPack is the time spent on the greedy packing that bounds K and
	// seeds the climbs.
	GreedyPack time.Duration
	// MoveSweepTime and SwapSweepTime are the wall time the climbs spent in
	// move sweeps and in swap sweeps.
	MoveSweepTime, SwapSweepTime time.Duration
}

// ProbeStats is one run of the solver at a fixed machine count: its verdict,
// its own evaluations and time, whether its cold-seed climbs were Reused
// from an earlier probe at K, and how many DIRECT samples it Resumed from
// that probe's search instead of evaluating them again.
type ProbeStats struct {
	K        int
	Feasible bool
	Fevals   int
	Elapsed  time.Duration
	Reused   bool
	Resumed  int
}

// add folds another evaluator's counters into s; probes and candidates are
// logged by the search that consumes them, not here.
func (s *SolveStats) add(o SolveStats) {
	s.Climbs += o.Climbs
	s.ClimbsReused += o.ClimbsReused
	s.Sweeps += o.Sweeps
	s.Considered += o.Considered
	s.Skipped += o.Skipped
	s.Priced += o.Priced
	s.CapPruned += o.CapPruned
	s.EvalPriced += o.EvalPriced
	s.EvalReused += o.EvalReused
	s.GreedyPack += o.GreedyPack
	s.MoveSweepTime += o.MoveSweepTime
	s.SwapSweepTime += o.SwapSweepTime
}

// SkippedFrac returns the share of sweep candidates that were skipped.
func (s SolveStats) SkippedFrac() float64 {
	if s.Considered+s.Skipped == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Considered+s.Skipped)
}

// UnitRef names a placement unit.
type UnitRef struct {
	Workload int
	Replica  int
}

// ConsolidationRatio returns how many original servers each consolidated
// server replaces, assuming one workload per original server.
func (s *Solution) ConsolidationRatio(originalServers int) float64 {
	if s.K == 0 {
		return 0
	}
	return float64(originalServers) / float64(s.K)
}

// MachineWorkloads groups workload indices by assigned machine: entry i
// lists the workloads on machine Loads[i].Machine.
func (s *Solution) MachineWorkloads() [][]int {
	out := make([][]int, len(s.Loads))
	entry := make(map[int]int, len(s.Loads))
	for i, sl := range s.Loads {
		entry[sl.Machine] = i
	}
	for u, j := range s.Assign {
		if i, ok := entry[j]; ok {
			out[i] = append(out[i], s.Units[u].Workload)
		}
	}
	return out
}
