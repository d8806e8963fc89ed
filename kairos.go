// Package kairos is a workload-aware database monitoring and consolidation
// system, a reproduction of "Workload-Aware Database Monitoring and
// Consolidation" (Curino, Jones, Madden, Balakrishnan — SIGMOD 2011).
//
// Kairos takes a collection of database workloads running on dedicated,
// mostly-idle servers and computes an assignment onto far fewer machines
// that preserves their throughput. The pipeline has three stages, each
// usable on its own:
//
//  1. Monitor (internal/monitor re-exported here): sample CPU, RAM and disk
//     statistics from running DBMS instances, and run buffer-pool gauging —
//     a probe-table technique that measures the true working set of an
//     over-provisioned database without touching its configuration.
//  2. Model (internal/model): predict the combined resource consumption of
//     co-located workloads. CPU and RAM compose linearly (with an overhead
//     correction); disk I/O goes through an empirical hardware profile —
//     a 2-D least-absolute-residuals polynomial over working-set size and
//     row-update rate.
//  3. Consolidate (internal/core): a mixed-integer non-linear program,
//     solved with the DIRECT global optimizer plus deterministic local
//     search, that minimizes the machine count and balances load without
//     over-committing any resource at any time step.
//
// The API is the Fleet session handle (fleet.go): NewFleet opens a session
// around a FleetSpec (workloads, machines, disk profile) plus functional
// options for solver budgets, drift thresholds and sharding; Consolidate
// computes the plan; Observe streams monitored observation windows through
// the drift detector (internal/drift) and re-solves warm from the
// incumbent exactly when the fleet's behaviour departs from the plan's
// assumptions; Plan and Window expose the current state. The handle has
// one writer: the caller runs its mutating verbs one at a time (several
// collectors feed one session through a queue or a lock of the caller's),
// while Plan, Incumbent and Window may be read from any goroutine beside
// it.
//
// Quick start:
//
//	profile, _ := kairos.ProfileHardware(kairos.QuickProfiler())
//	f, _ := kairos.NewFleet(kairos.FleetSpec{
//		Workloads: workloads, Machines: machines, Disk: profile,
//	})
//	plan, _ := f.Consolidate(ctx) // the initial placement
//	for window := range collector {
//		if ev, _ := f.Observe(ctx, window); ev != nil {
//			fmt.Println("re-consolidated:", ev) // drift-triggered re-solve
//		}
//	}
//
// Observe is three steps — detect, solve, commit — and a durable control
// plane takes them one at a time so its journal write sits between the
// solve and the commit: ObserveDetectOnly (detect; reports a trigger),
// Resolve (solve for that trigger; commits nothing), journal the event's
// incumbent, Advance (commit it). The Fleet holds the trigger, so the
// caller keeps no copy, and a trigger changes nothing until it commits: one
// whose solve failed or was suppressed, or whose journal write was refused,
// leaves the session as a quiet window would, and needs no record. Crash
// recovery replays the same journal through the counterparts that do not
// solve: RestoreWatch for the registration-time Consolidate (a checkpoint
// of no window) and for a snapshot's Checkpoint, ObserveDetectOnly for
// each window, ReplayAdvance for each journaled advance. A window may
// omit registered workloads: the re-solve forecasts every workload of the
// fleet's baseline (the registration, then the last forecast), each from
// the retained windows that carried it. `kairos
// serve` (internal/server) is that control plane: register/ingest/query
// over a versioned HTTP API, each fleet's windows applied one at a time
// under the fleet's turn, plus Prometheus metrics.
//
// Everything runs against a built-in DBMS/disk simulator (internal/dbms,
// internal/disk), so the whole system — including the paper's experiments —
// works on a laptop with no external dependencies.
package kairos

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"kairos/internal/core"
	"kairos/internal/dbms"
	"kairos/internal/model"
	"kairos/internal/monitor"
	"kairos/internal/unit"
	"kairos/internal/workload"
)

// Re-exported building blocks: the facade works entirely in terms of these
// types, so downstream code rarely needs the internal packages directly.
type (
	// Workload is one database's resource profile (time series of CPU,
	// RAM, working set and update rate) plus placement requirements.
	Workload = core.Workload
	// Machine is one consolidation target with capacities and headroom,
	// each in its unit type below.
	Machine = core.Machine
	// Problem is a full consolidation instance.
	Problem = core.Problem
	// Solution is the computed assignment.
	Solution = core.Solution
	// UnitRef names one placement unit of a Solution (workload, replica).
	UnitRef = core.UnitRef
	// SolveOptions tunes the solver budgets.
	SolveOptions = core.SolveOptions
	// DiskProfile is the empirical disk model of a target configuration.
	DiskProfile = model.DiskProfile
	// The quantities a Machine and a DiskProfile carry (internal/unit):
	// quantities of different units do not mix without a conversion.
	MB         = unit.MB
	Bytes      = unit.Bytes
	MBps       = unit.MBps
	Bps        = unit.Bps
	RowsPerSec = unit.RowsPerSec
	Ms         = unit.Ms
	Frac       = unit.Frac
	TargetCPU  = unit.TargetCPU
	// Profiler sweeps a hardware configuration to build a DiskProfile.
	Profiler = model.Profiler
	// GaugeConfig tunes buffer-pool gauging.
	GaugeConfig = monitor.GaugeConfig
	// GaugeResult is the outcome of a gauging run.
	GaugeResult = monitor.GaugeResult
	// ResourceProfile is a monitored workload's resource time series.
	ResourceProfile = monitor.Profile
	// LatencySLA bounds the queueing slowdown a workload tolerates after
	// consolidation (utilization cap on its host machine).
	LatencySLA = core.LatencySLA
	// Grouping configures ConsolidatePartitioned.
	Grouping = core.Grouping
	// PartitionedSolution is the result of ConsolidatePartitioned.
	PartitionedSolution = core.PartitionedSolution
	// Incumbent is a saved consolidation plan a session warm-starts from
	// (WithIncumbent: rolling re-consolidation).
	Incumbent = core.Incumbent
)

// DefaultOptions returns the standard solver budgets.
func DefaultOptions() SolveOptions { return core.DefaultSolveOptions() }

// DefaultResolveOptions returns the standard knobs for warm-started
// re-consolidation: DefaultOptions plus a small migration weight, so
// re-solved plans stay sticky under workload drift without freezing.
func DefaultResolveOptions() SolveOptions { return core.DefaultResolveOptions() }

// QuickProfiler returns a reduced hardware sweep that builds a usable disk
// profile in a few seconds of wall-clock time (the full DefaultProfiler
// sweep matches the paper's ranges and takes a minute or two).
func QuickProfiler() Profiler {
	pr := model.DefaultProfiler()
	pr.WSPointsMB = []float64{500, 1500, 3000}
	pr.RatePoints = []float64{1000, 4000, 10000, 20000, 40000}
	pr.Settle = 30 * time.Second
	pr.Measure = 30 * time.Second
	return pr
}

// ProfileHardware runs the profiling sweep and returns the fitted disk
// model for the configuration (paper Section 4.1, Figure 4).
func ProfileHardware(pr Profiler) (*DiskProfile, error) {
	return pr.Run()
}

// GaugeWorkingSet measures the true working set of the databases hosted on
// a live instance by buffer-pool gauging (paper Section 3.1, Figure 3),
// while the given workloads keep running.
func GaugeWorkingSet(in *dbms.Instance, gens []*workload.Generator, cfg GaugeConfig) (GaugeResult, error) {
	return monitor.Gauge(in, gens, cfg)
}

// Plan is a consolidation solution — with its per-machine loads, Loads —
// together with the names of its workloads.
type Plan struct {
	*Solution
	// Names maps unit index to workload name.
	Names []string

	// incumbent is the plan's durable form, captured at construction (only
	// workload and machine names are retained — not the problem's series).
	incumbent *Incumbent
}

// Incumbent returns the plan in a durable form for later warm-started
// re-solves: save it with Incumbent().Save, reload with core.LoadIncumbent
// (or `kairos consolidate -save-plan` / `-resolve` on the command line),
// and seed a session WithIncumbent once the fleet's traces have drifted.
// Nil for Plans not produced by this package's constructors.
func (p *Plan) Incumbent() *Incumbent {
	return p.incumbent
}

// newPlan decorates a solution with display names.
func newPlan(p *Problem, sol *Solution) *Plan {
	names := make([]string, len(sol.Units))
	for i, u := range sol.Units {
		names[i] = p.Workloads[u.Workload].Name
		if u.Replica > 0 {
			names[i] = fmt.Sprintf("%s/r%d", names[i], u.Replica)
		}
	}
	return &Plan{
		Solution:  sol,
		Names:     names,
		incumbent: core.IncumbentFromSolution(p, sol),
	}
}

// String renders the plan as a human-readable placement table.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consolidation plan: %d workloads -> %d machines (feasible=%v, %.1fs solve)\n",
		len(p.Names), p.K, p.Feasible, p.Elapsed.Seconds())
	// The plan's machines are those Loads lists; a unit on none of them is
	// priced as a violation and shown rather than left to vanish.
	byMachine := map[int][]string{}
	for u, j := range p.Assign {
		byMachine[j] = append(byMachine[j], p.Names[u])
	}
	for _, sl := range p.Loads {
		names := byMachine[sl.Machine]
		delete(byMachine, sl.Machine)
		if len(names) == 0 {
			fmt.Fprintf(&b, "  machine %d: (unused)\n", sl.Machine)
			continue
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  machine %d [cpu %.0f%% ram %.1fGB disk %.1fMB/s]: %s\n", sl.Machine,
			sl.CPUPeak*100, sl.RAMPeak/1e9, sl.DiskPeak/1e6, strings.Join(names, ", "))
	}
	var unassigned []string
	for _, names := range byMachine {
		unassigned = append(unassigned, names...)
	}
	if len(unassigned) > 0 {
		sort.Strings(unassigned)
		fmt.Fprintf(&b, "  UNASSIGNED (out-of-range, plan infeasible): %s\n", strings.Join(unassigned, ", "))
	}
	return b.String()
}

// ConsolidatePartitioned solves very large inventories by splitting the
// workloads into fixed-size groups and consolidating each independently —
// the paper's Section 7.5 strategy for "tens of thousands of databases".
// It trades some cross-group co-location opportunity for linear scaling.
// Cancelling ctx aborts the solve after the current group.
func ConsolidatePartitioned(ctx context.Context, workloads []Workload, machines []Machine, dp *DiskProfile, g Grouping) (*PartitionedSolution, error) {
	p := &Problem{Workloads: workloads, Machines: machines, Disk: dp}
	return core.SolvePartitioned(ctx, p, g)
}

// MeasureWorkloads drives the given workload generators on an instance for
// the duration and returns one resource profile per workload plus the
// instance-wide profile — the paper's Resource Monitor in one call.
func MeasureWorkloads(in *dbms.Instance, gens []*workload.Generator, duration time.Duration) (map[string]*ResourceProfile, *ResourceProfile, error) {
	c, err := monitor.NewCollector(in, gens)
	if err != nil {
		return nil, nil, err
	}
	return c.Collect(duration)
}

// WorkloadFromProfile converts a monitored profile into a consolidation
// workload. cpuScale converts the measured machine's CPU fraction into
// target-machine units (sourceCores·clock / targetCores·clock); the working
// set series doubles as the RAM requirement.
func WorkloadFromProfile(p *ResourceProfile, cpuScale float64) Workload {
	if cpuScale <= 0 {
		cpuScale = 1
	}
	return Workload{
		Name:         p.Name,
		CPU:          p.CPU.Scale(cpuScale),
		RAMBytes:     p.WorkingSetBytes.Clone(),
		WSBytes:      p.WorkingSetBytes.Clone(),
		UpdateRate:   p.RowUpdatesPerSec.Clone(),
		DiskWriteBps: p.DiskWriteBps.Clone(),
		PinTo:        -1,
	}
}
