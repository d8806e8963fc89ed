package kairos

import (
	"context"
	"fmt"
	"sync/atomic"

	"kairos/internal/core"
	"kairos/internal/drift"
)

// This file is the package's session type: a Fleet owns one fleet's
// consolidation state — the spec it was registered with, the incumbent
// plan, and the drift detector with its baseline and forecast history.
// Its state moves through three unexported steps, each written once —
// detect (a window through the detector into the history), solve
// (forecast, price the incumbent, warm re-solve; mutates nothing) and
// commit (rebase the detector on the forecast, advance the incumbent,
// publish the plan) — and every exported verb is a composition of them
// (see the package comment). The HTTP control plane (internal/server,
// `kairos serve`) is a thin remote projection: one Fleet per registered
// fleet, whose windows apply one at a time under the fleet's turn.

// FleetSpec describes a fleet under management: the workloads to place,
// the target machines, and optionally the empirical disk model of the
// target hardware. It is the one input every session starts from; solver,
// drift and sharding knobs come in as FleetOptions.
type FleetSpec struct {
	// Name identifies the fleet (used by the control plane and logs; may
	// be empty for library use).
	Name string
	// Workloads are the resource profiles to place. For Observe to work,
	// every workload needs a unique non-empty Name — observation windows
	// are matched to baselines by name.
	Workloads []Workload
	// Machines are the consolidation targets, in any order; plans index it.
	Machines []Machine
	// Disk is the target hardware's empirical profile; nil disables the
	// non-linear disk constraint.
	Disk *DiskProfile
}

// fleetConfig is the resolved option set of a Fleet session: cold-solve
// budgets, warm re-solve budgets, drift thresholds and sharding.
type fleetConfig struct {
	solve   SolveOptions
	resolve SolveOptions
	drift   DriftConfig
	// shards is the cold solves' shard count (WithShards); 1 or less is
	// unsharded.
	shards int
	// inc seeds the session with an existing plan (WithIncumbent): Observe
	// works immediately and Consolidate re-solves warm instead of cold.
	inc *Incumbent
}

// FleetOption configures a Fleet session at construction.
type FleetOption func(*fleetConfig)

// WithSolveOptions sets the budgets for cold solves (Consolidate without
// an incumbent). Defaults to DefaultOptions.
func WithSolveOptions(opt SolveOptions) FleetOption {
	return func(c *fleetConfig) { c.solve = opt }
}

// WithResolveOptions sets the budgets for warm re-solves — both explicit
// Consolidate calls on a session that already has an incumbent and the
// drift-triggered re-solves behind Observe. Defaults to
// DefaultResolveOptions.
func WithResolveOptions(opt SolveOptions) FleetOption {
	return func(c *fleetConfig) { c.resolve = opt }
}

// WithDrift tunes the drift detector behind Observe: trigger threshold,
// cool-down windows, forecast history and workload quorum. Defaults to a
// 4% threshold with one cool-down window.
func WithDrift(cfg DriftConfig) FleetOption {
	return func(c *fleetConfig) { c.drift = cfg }
}

// WithShards makes cold solves use the sharded fleet engine with n
// correlation-aware shards solved concurrently; n ≤ 1, or machines of more
// than one capacity class, solves unsharded. Each shard solves with the
// session's solve options.
func WithShards(n int) FleetOption {
	return func(c *fleetConfig) { c.shards = n }
}

// WithIncumbent seeds the session with a previously saved plan: Observe
// watches for drift against it immediately (no cold solve needed), and an
// explicit Consolidate call re-solves warm from it, charging migration
// costs per the resolve options.
func WithIncumbent(inc *Incumbent) FleetOption {
	return func(c *fleetConfig) { c.inc = inc }
}

// Fleet is a consolidation session: it owns one fleet's incumbent plan and
// drift detector. Create it with NewFleet, compute the initial plan with
// Consolidate (or seed one WithIncumbent), then stream observation
// windows through Observe — each drift trigger
// re-solves warm and advances the plan.
//
// A Fleet has one writer: the verbs that change or export its state
// (Consolidate, Observe, ObserveDetectOnly, Resolve, Advance, ReplayAdvance,
// AdoptIncumbent, Checkpoint, RestoreWatch) must be called one at a time,
// so a caller with several collectors puts their windows in one order
// itself. The read accessors (Plan, Incumbent, Window) are safe beside that
// writer from any number of goroutines: they load the published view, so
// they do not wait for a triggered re-solve in flight.
type Fleet struct {
	spec FleetSpec // immutable after NewFleet
	cfg  fleetConfig

	// det is the drift detector, built on first use around the current
	// incumbent with the spec workloads as its assumptions; Consolidate and
	// AdoptIncumbent drop it.
	det *drift.Detector
	// baseline is the last committed re-solve's forecast: nil until a
	// trigger commits, while the spec workloads are the detector's
	// assumptions (orSpec). Checkpoints carry it so a restored
	// detector rebuilds the same per-resource means.
	baseline []Workload
	// history holds the last cfg.drift.History observation windows, oldest
	// first — the windows the detector keeps — feeding the forecast a
	// triggered re-solve consumes.
	history [][]Workload
	// trig is the trigger the last detect step reported, until a commit
	// settles it or the next window replaces it: what Resolve solves for.
	trig *DriftTrigger
	// gen counts mutating steps, so Advance can refuse an event the session
	// has moved past since Resolve stamped it.
	gen uint64

	// view is the published state. The writer replaces it and never edits
	// a stored one, so a reader's Load is a consistent snapshot.
	view atomic.Pointer[fleetView]
}

// fleetView is what the read accessors see of a session.
type fleetView struct {
	plan    *Plan
	inc     *Incumbent
	windows int
}

// NewFleet opens a consolidation session for the fleet described by spec.
// The spec is validated structurally (series shapes, machine capacities)
// and the drift configuration as the detector will check it, up front;
// workload-name uniqueness is only required once Observe is used.
func NewFleet(spec FleetSpec, opts ...FleetOption) (*Fleet, error) {
	cfg := fleetConfig{
		solve:   DefaultOptions(),
		resolve: DefaultResolveOptions(),
		drift:   drift.DefaultConfig(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.drift.Validate(); err != nil {
		return nil, err
	}
	cfg.drift = cfg.drift.WithDefaults()
	p := &Problem{Workloads: spec.Workloads, Machines: spec.Machines, Disk: spec.Disk}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	f := &Fleet{spec: spec, cfg: cfg}
	f.view.Store(&fleetView{inc: cfg.inc})
	return f, nil
}

// Name returns the fleet's name from the spec.
func (f *Fleet) Name() string { return f.spec.Name }

// problem builds the session's consolidation instance.
func (f *Fleet) problem() *Problem {
	return &Problem{Workloads: f.spec.Workloads, Machines: f.spec.Machines, Disk: f.spec.Disk}
}

// publish replaces the published view with an edited copy; only the
// fleet's one writer calls it.
func (f *Fleet) publish(edit func(*fleetView)) {
	v := new(fleetView)
	*v = *f.view.Load()
	edit(v)
	f.view.Store(v)
}

// adopt makes plan the session's plan and incumbent. The detector
// was tracking the old plan's assumptions: drop it, so the next window
// rebuilds it against the fresh incumbent.
func (f *Fleet) adopt(plan *Plan) {
	f.det, f.baseline, f.history, f.trig = nil, nil, nil, nil
	f.gen++
	f.publish(func(v *fleetView) { v.plan, v.inc, v.windows = plan, plan.Incumbent(), 0 })
}

// solveSpec solves the spec workloads: warm from inc when there is one,
// else cold, in the session's shards (SolveSharded solves one unsharded).
func (f *Fleet) solveSpec(ctx context.Context, p *Problem, inc *Incumbent) (*Solution, error) {
	if inc != nil {
		return core.Resolve(ctx, p, inc, f.cfg.resolve)
	}
	return core.SolveSharded(ctx, p, core.ShardOptions{Shards: f.cfg.shards, Options: f.cfg.solve})
}

// Consolidate computes the session's plan from the spec workloads: a cold
// solve (sharded if the session was built WithShards) when
// the session has no incumbent yet, a warm re-solve with migration
// pricing when it does (WithIncumbent, or a previous Consolidate/trigger).
// The result becomes the incumbent that Observe watches and future
// triggers warm-start from. Cancelling ctx aborts the solve and returns
// ctx.Err(); the session keeps its previous plan.
func (f *Fleet) Consolidate(ctx context.Context) (*Plan, error) {
	p := f.problem()
	sol, err := f.solveSpec(ctx, p, f.view.Load().inc)
	if err != nil {
		return nil, err
	}
	plan := newPlan(p, sol)
	f.adopt(plan)
	return plan, nil
}

// Incumbent returns the plan the next drift trigger will warm-start from,
// in its durable form (nil until Consolidate runs or WithIncumbent seeds
// one).
func (f *Fleet) Incumbent() *Incumbent { return f.view.Load().inc }

// Plan returns the latest computed plan: the initial Consolidate result
// until a trigger fires, then each triggered re-solve's. Nil for sessions
// seeded WithIncumbent before any solve has run.
func (f *Fleet) Plan() *Plan { return f.view.Load().plan }

// Window returns how many observation windows the session has consumed.
func (f *Fleet) Window() int { return f.view.Load().windows }

// newDetector builds a drift detector around inc with baseline as the
// assumptions it was solved against. Workload names must be unique and
// non-empty: they are how observations, baselines and incumbent
// placements are matched across windows.
func (f *Fleet) newDetector(inc *Incumbent, baseline []Workload) (*drift.Detector, error) {
	if inc == nil || inc.K <= 0 || len(inc.Units) == 0 {
		return nil, fmt.Errorf("kairos: watch needs a non-empty incumbent plan")
	}
	samples, err := driftSamples(baseline)
	if err != nil {
		return nil, err
	}
	return drift.NewDetector(f.cfg.drift, samples)
}

// watch makes sure the session has a drift detector, building it on
// first use around the current incumbent with the spec workloads as the
// baseline assumptions.
func (f *Fleet) watch() error {
	if f.det != nil {
		return nil
	}
	inc := f.view.Load().inc
	if inc == nil {
		return fmt.Errorf("kairos: fleet %q has no plan to watch: call Consolidate first or seed one WithIncumbent", f.spec.Name)
	}
	det, err := f.newDetector(inc, f.spec.Workloads)
	if err != nil {
		return err
	}
	f.det = det
	return nil
}

// orSpec is the workload set the detector's assumptions came from and the
// next forecast starts from, given the fleet's committed baseline b: the
// last committed forecast, or the spec workloads before any trigger has
// committed.
func (f *Fleet) orSpec(b []Workload) []Workload {
	if len(b) > 0 {
		return b
	}
	return f.spec.Workloads
}

// detect is the detect step: one observation window through the
// drift detector and into the forecast history. A rejected window (shape
// mismatch, unknown or duplicate workload) is not consumed and stays out
// of the history. A trigger changes the detector only if it commits.
func (f *Fleet) detect(window []Workload) (*DriftTrigger, error) {
	if err := f.watch(); err != nil {
		return nil, err
	}
	samples, err := driftSamples(window)
	if err != nil {
		return nil, err
	}
	trig, err := f.det.Observe(samples)
	if err != nil {
		return nil, err
	}
	// The triggering window itself is part of the forecast the re-solve
	// consumes — it is the freshest evidence there is.
	f.history = append(f.history, window)
	if h := f.cfg.drift.History; len(f.history) > h {
		f.history = f.history[len(f.history)-h:]
	}
	f.trig = trig
	f.gen++
	f.publish(func(v *fleetView) { v.windows = f.det.Window() })
	return trig, nil
}

// solve is the solve step: forecast the baseline from the retained
// windows, re-solve warm from the incumbent on the forecast, which also
// prices the incumbent there. It reads what it is handed and the immutable
// spec, and mutates nothing.
func (f *Fleet) solve(ctx context.Context, trig *DriftTrigger, baseline []Workload, history [][]Workload, inc *Incumbent) (*ReconsolidationEvent, error) {
	forecast, err := forecastWorkloads(baseline, history)
	if err != nil {
		return nil, fmt.Errorf("kairos: building forecast series: %w", err)
	}
	p := &Problem{Workloads: forecast, Machines: f.spec.Machines, Disk: f.spec.Disk}
	// Validate the forecast as a detector baseline before solving: once a
	// durable caller has journaled the event, committing it must not fail.
	samples, err := driftSamples(forecast)
	if err != nil {
		return nil, err
	}
	sol, err := core.Resolve(ctx, p, inc, f.cfg.resolve)
	if err != nil {
		return nil, &ResolveError{Err: err}
	}
	plan := newPlan(p, sol)
	return &ReconsolidationEvent{
		Window:         trig.Window,
		Trigger:        trig,
		Plan:           plan,
		StaleObjective: sol.SeedObjective,
		StaleFeasible:  sol.SeedFeasible,
		ObjectiveDelta: sol.SeedObjective - plan.Objective,
		forecast:       forecast,
		samples:        samples,
	}, nil
}

// commit is the commit step: plan was solved against forecast, so
// that is the assumption set future windows drift against. The detector
// rebases onto it (samples is the forecast in the detector's form), the
// baseline and incumbent move, the plan publishes.
func (f *Fleet) commit(forecast []Workload, samples []drift.Sample, plan *Plan) error {
	if err := f.det.SetBaseline(samples); err != nil {
		return err
	}
	f.baseline, f.trig = forecast, nil
	f.gen++
	f.publish(func(v *fleetView) { v.plan, v.inc = plan, plan.Incumbent() })
	return nil
}

// Observe consumes one observation window (the fleet's measured workload
// series for the period, matched to the spec by workload name). It
// returns (nil, nil) while the plan holds; when the drift detector fires
// it re-solves warm from the incumbent on the forecast series, commits
// the new plan as the incumbent, and returns the event. It is a writer's
// verb: windows from several collectors go through it one at a time, in
// the order the caller gives them. A failed or cancelled re-solve
// returns a *ResolveError (cancelling ctx aborts it mid-flight); the
// window still counts as consumed, and since nothing committed,
// persistent drift fires again on the next window.
func (f *Fleet) Observe(ctx context.Context, window []Workload) (*ReconsolidationEvent, error) {
	trig, err := f.detect(window)
	if err != nil || trig == nil {
		return nil, err
	}
	ev, err := f.solve(ctx, trig, f.orSpec(f.baseline), f.history, f.view.Load().inc)
	if err == nil {
		err = f.commit(ev.forecast, ev.samples, ev.Plan)
	}
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// ObserveDetectOnly is Observe's detect step alone: the window goes
// through the drift detector and forecast history, nothing solves, and the
// result says whether it fired a trigger, which changes nothing until
// Resolve + Advance or ReplayAdvance commits it.
func (f *Fleet) ObserveDetectOnly(window []Workload) (triggered bool, err error) {
	trig, err := f.detect(window)
	return trig != nil, err
}

// Resolve is Observe's solve step alone: it re-solves for the trigger the
// last ObserveDetectOnly reported and returns the event without committing
// anything, so a durable caller can journal the advance before Advance
// publishes it. A solver failure is a *ResolveError, and leaves the session
// as the window alone left it.
func (f *Fleet) Resolve(ctx context.Context) (*ReconsolidationEvent, error) {
	if f.trig == nil {
		return nil, fmt.Errorf("kairos: fleet %q has no unsettled drift trigger to resolve", f.spec.Name)
	}
	ev, err := f.solve(ctx, f.trig, f.orSpec(f.baseline), f.history, f.view.Load().inc)
	if err != nil {
		return nil, err
	}
	ev.gen = f.gen
	return ev, nil
}

// Advance is Observe's commit step alone: it commits the event Resolve
// returned — new incumbent, rebased detector, published plan. It refuses
// an event the session has moved past since Resolve (another
// window, a Consolidate), and one Observe already committed.
func (f *Fleet) Advance(ev *ReconsolidationEvent) error {
	if ev == nil || ev.samples == nil || ev.gen != f.gen {
		return fmt.Errorf("kairos: fleet %q: stale advance: the session moved since Resolve produced the event", f.spec.Name)
	}
	return f.commit(ev.forecast, ev.samples, ev.Plan)
}

// ReplayAdvance is Advance's replay counterpart, for crash recovery: the
// plan is rebuilt from the journaled incumbent against the forecast of the
// replayed history (deterministic — the same windows the live solve
// forecast from; no solve), then committed exactly as the live advance
// was. Call it right after the ObserveDetectOnly that reported the
// corresponding trigger.
func (f *Fleet) ReplayAdvance(inc *Incumbent) (*Plan, error) {
	if err := f.watch(); err != nil {
		return nil, err
	}
	if len(f.history) == 0 {
		return nil, fmt.Errorf("kairos: replayed advance with no observation history")
	}
	forecast, err := forecastWorkloads(f.orSpec(f.baseline), f.history)
	if err != nil {
		return nil, fmt.Errorf("kairos: rebuilding forecast for replayed advance: %w", err)
	}
	p := &Problem{Workloads: forecast, Machines: f.spec.Machines, Disk: f.spec.Disk}
	sol, err := core.SolutionFromIncumbent(p, inc)
	if err != nil {
		return nil, err
	}
	plan := newPlan(p, sol)
	samples, err := driftSamples(forecast)
	if err != nil {
		return nil, err
	}
	if err := f.commit(forecast, samples, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// AdoptIncumbent materializes a previously published plan as the
// session's current plan without solving: Consolidate's replay
// counterpart, for the registration-time solve whose durable incumbent
// the journal holds. The plan is priced against the spec workloads; the
// detector is dropped so the next window rebuilds it against the plan.
func (f *Fleet) AdoptIncumbent(inc *Incumbent) (*Plan, error) {
	p := f.problem()
	sol, err := core.SolutionFromIncumbent(p, inc)
	if err != nil {
		return nil, err
	}
	plan := newPlan(p, sol)
	f.adopt(plan)
	return plan, nil
}

// FleetCheckpoint is a session's full durable watch state: everything a
// restarted process needs (beyond the spec it was registered with) to
// resume monitoring exactly where the crashed one stopped.
type FleetCheckpoint struct {
	// Incumbent is the current plan in durable form.
	Incumbent *Incumbent
	// Baseline is the last committed re-solve's forecast, the workload set
	// the detector's assumptions came from; nil until a trigger commits,
	// while the spec workloads are.
	Baseline []Workload
	// History is the retained observation windows, oldest first.
	History [][]Workload
	// Windows and Cooldown are the detector's counter state.
	Windows  int
	Cooldown int
	// Armed stays in the schema: Checkpoint writes true, RestoreWatch
	// ignores it.
	Armed bool
}

// Checkpoint exports the session's durable watch state for a snapshot.
// Sessions that have not consumed a window yet checkpoint just their
// incumbent (nil if no plan exists either). It reads the writer's state,
// so the caller runs it as one of the writer's verbs, never beside them.
func (f *Fleet) Checkpoint() *FleetCheckpoint {
	cp := &FleetCheckpoint{Incumbent: f.view.Load().inc, Armed: true}
	if f.det == nil {
		return cp
	}
	cp.Baseline = append([]Workload(nil), f.baseline...)
	cp.History = make([][]Workload, len(f.history))
	for i, w := range f.history {
		cp.History[i] = append([]Workload(nil), w...)
	}
	cp.Windows, cp.Cooldown = f.det.Window(), f.det.Cooldown()
	return cp
}

// RestoreWatch rebuilds the session's detector from a checkpoint: its
// baseline comes from the checkpointed workloads, the forecast history is
// re-seeded, and the counters resume mid-stream. The checkpointed
// incumbent becomes the plan the next trigger warm-starts from, published
// priced on the baseline: the forecast the last committed trigger solved
// on, as ReplayAdvance prices it, or the spec workloads before any.
func (f *Fleet) RestoreWatch(cp *FleetCheckpoint) error {
	if cp.Incumbent == nil {
		return fmt.Errorf("kairos: checkpoint for fleet %q has no incumbent plan", f.spec.Name)
	}
	baseline := f.orSpec(cp.Baseline)
	p := &Problem{Workloads: baseline, Machines: f.spec.Machines, Disk: f.spec.Disk}
	sol, err := core.SolutionFromIncumbent(p, cp.Incumbent)
	if err != nil {
		return err
	}
	det, err := f.newDetector(cp.Incumbent, baseline)
	if err != nil {
		return err
	}
	for _, w := range cp.History {
		samples, err := driftSamples(w)
		if err != nil {
			return fmt.Errorf("kairos: restoring observation history: %w", err)
		}
		if err := det.SeedHistory(samples); err != nil {
			return err
		}
	}
	det.Restore(cp.Windows, cp.Cooldown)
	history := append([][]Workload(nil), cp.History...)
	if h := f.cfg.drift.History; len(history) > h {
		history = history[len(history)-h:]
	}
	f.det, f.baseline, f.history, f.trig = det, cp.Baseline, history, nil
	f.gen++
	f.publish(func(v *fleetView) { v.plan, v.inc, v.windows = newPlan(p, sol), cp.Incumbent, cp.Windows })
	return nil
}
