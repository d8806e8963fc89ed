package kairos

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"kairos/internal/core"
	"kairos/internal/drift"
	"kairos/internal/predict"
	"kairos/internal/series"
)

// This file wires event-driven re-consolidation end to end: a
// drift.Detector watches observation windows against the incumbent plan's
// assumptions, and when it fires, the re-solve runs on the *forecast*
// series (the rolling mean of recent windows — the paper's
// average-of-weeks predictor) rather than the stale profile, warm-started
// from the saved incumbent. PR 3's Reconsolidate gave re-solves a fixed
// cadence; this makes them fire exactly when monitoring says the plan has
// gone stale.

// Re-exported drift-detection building blocks.
type (
	// DriftConfig tunes the drift detector's thresholds, hysteresis and
	// cool-down.
	DriftConfig = drift.Config
	// DriftTrigger reports which workloads drifted, by how much, on which
	// resource.
	DriftTrigger = drift.Trigger
	// DriftCause is one drifted (workload, resource, signal) triple.
	DriftCause = drift.Cause
)

// WatchOptions configures the event-driven re-consolidation loop.
type WatchOptions struct {
	// Drift tunes the trigger: threshold, hysteresis re-arm level,
	// cool-down windows, forecast history and workload quorum.
	Drift DriftConfig
	// Resolve tunes the warm re-solve run on each trigger
	// (MigrationWeight, MaxMigrations, Workers, ...).
	Resolve SolveOptions
}

// DefaultWatchOptions returns the standard watch knobs: a 4% drift
// threshold with one cool-down window, and DefaultResolveOptions' sticky
// migration pricing for the triggered re-solves.
func DefaultWatchOptions() WatchOptions {
	return WatchOptions{
		Drift:   DriftConfig{Threshold: 0.04, Cooldown: 1},
		Resolve: core.DefaultResolveOptions(),
	}
}

// ReconsolidationEvent is one triggered re-solve of the watch loop.
type ReconsolidationEvent struct {
	// Window is the observation window index that fired.
	Window int
	// Trigger is the drift evidence: which workloads, which resource, how
	// far past the threshold.
	Trigger *DriftTrigger
	// Plan is the re-solved plan (its Migrated/MigrationCost fields report
	// the churn; its Incumbent() is the new saved plan).
	Plan *Plan
	// StaleObjective and StaleFeasible price the incumbent plan, unchanged,
	// on the forecast series — what keeping the old plan would cost.
	StaleObjective float64
	StaleFeasible  bool
	// ObjectiveDelta is StaleObjective − Plan.Objective: how much objective
	// the re-solve recovered (positive means the new plan is better; only
	// comparable when the machine counts agree).
	ObjectiveDelta float64
}

// String renders the event as a one-line log entry.
func (e *ReconsolidationEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %d: %v -> re-solved to K=%d (feasible=%v), %d/%d units migrated",
		e.Window, e.Trigger, e.Plan.K, e.Plan.Feasible, e.Plan.Migrated, len(e.Plan.Assign))
	fmt.Fprintf(&b, ", objective %.4f (stale %.4f, recovered %+.4f)",
		e.Plan.Objective, e.StaleObjective, e.ObjectiveDelta)
	return b.String()
}

// AutoReconsolidator is the stateful event-driven re-consolidation loop:
// feed it one observation window at a time with Observe, and it re-solves
// — warm-started from the incumbent it maintains — exactly when the drift
// detector fires. It is safe for concurrent use: windows arriving from
// multiple collectors serialize on an internal mutex, so each Observe sees
// a consistent (incumbent, detector, history) triple and re-solves never
// overlap.
type AutoReconsolidator struct {
	// mu guards every field below: the detector and forecast history
	// mutate on every Observe, and the incumbent advances on triggers.
	mu       sync.Mutex
	machines []Machine
	dp       *DiskProfile
	opt      WatchOptions
	det      *drift.Detector // guarded by mu
	inc      *Incumbent      // guarded by mu
	// baseline is the workload set the detector's current assumptions came
	// from: the construction baseline until a trigger fires, then each
	// re-solve's forecast. Checkpoints carry it so a restored detector
	// rebuilds the same per-resource means.
	baseline []Workload // guarded by mu
	// history holds the last `histLen` observation windows, oldest first,
	// feeding the forecast the triggered re-solve consumes.
	history [][]Workload // guarded by mu
	histLen int
	// onAdvance, when set, runs after a triggered re-solve succeeds but
	// before its plan is committed as the incumbent — the control plane's
	// write-ahead hook. An error aborts the advance: nothing is published,
	// and Observe re-arms the detector so the drift fires again.
	onAdvance func(*ReconsolidationEvent) error // guarded by mu
}

// ResolveError marks a drift-triggered re-solve that failed in the solver
// itself (as opposed to a rejected window or an aborted advance hook).
// The control plane backs off the fleet's reconcile loop on it.
type ResolveError struct {
	// Err is the underlying solver failure.
	Err error
}

// Error implements error.
func (e *ResolveError) Error() string {
	return fmt.Sprintf("kairos: triggered re-solve failed: %v", e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As (a cancelled
// context stays recognizable through the wrapper).
func (e *ResolveError) Unwrap() error { return e.Err }

// NewAutoReconsolidator creates the watch loop around an incumbent plan.
// baseline is the per-workload series the incumbent was solved against
// (its assumptions — the reference the utilization-delta signal uses);
// machines and dp describe the target fleet for the triggered re-solves.
// Workload names must be unique and non-empty: they are how observations,
// baselines and incumbent placements are matched across windows.
func NewAutoReconsolidator(inc *Incumbent, baseline []Workload, machines []Machine, dp *DiskProfile, opt WatchOptions) (*AutoReconsolidator, error) {
	if inc == nil || inc.K <= 0 || len(inc.Units) == 0 {
		return nil, fmt.Errorf("kairos: watch needs a non-empty incumbent plan")
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("kairos: watch needs target machines")
	}
	samples, err := driftSamples(baseline)
	if err != nil {
		return nil, err
	}
	det, err := drift.NewDetector(opt.Drift, samples)
	if err != nil {
		return nil, err
	}
	histLen := opt.Drift.History
	if histLen <= 0 {
		histLen = 2 // drift.Config's documented default
	}
	return &AutoReconsolidator{
		machines: machines,
		dp:       dp,
		opt:      opt,
		det:      det,
		inc:      inc,
		baseline: baseline,
		histLen:  histLen,
	}, nil
}

// Incumbent returns the plan the next trigger will warm-start from — the
// original one until a trigger fires, then each re-solve's result.
func (ar *AutoReconsolidator) Incumbent() *Incumbent {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.inc
}

// Window returns how many observation windows have been consumed.
func (ar *AutoReconsolidator) Window() int {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.det.Window()
}

// Observe consumes one observation window (the fleet's measured workload
// series for the period). It returns (nil, nil) while the plan holds; when
// the drift detector fires it re-solves from the forecast series and
// returns the event. After a triggered re-solve the new plan becomes the
// incumbent and the forecast becomes the detector's baseline. Cancelling
// ctx aborts a triggered re-solve and returns ctx.Err(); the window still
// counts as consumed, and the detector re-arms so persistent drift fires
// again on the next window.
func (ar *AutoReconsolidator) Observe(ctx context.Context, observed []Workload) (*ReconsolidationEvent, error) {
	samples, err := driftSamples(observed)
	if err != nil {
		return nil, err
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	trig, err := ar.det.Observe(samples)
	if err != nil {
		// The window was rejected (shape mismatch, unknown workload):
		// keep it out of the forecast history too.
		return nil, err
	}
	// The triggering window itself is part of the forecast the re-solve
	// consumes — it is the freshest evidence there is.
	ar.history = append(ar.history, observed)
	if len(ar.history) > ar.histLen {
		ar.history = ar.history[len(ar.history)-ar.histLen:]
	}
	if trig == nil {
		return nil, nil
	}

	//kairoslint:allow lockorder: triggered re-solves run under ar.mu by design to serialize with Observe; ctx aborts them on shutdown
	ev, err := ar.resolve(ctx, trig)
	if err != nil {
		// The detector disarmed itself when it fired; with no re-solve to
		// rebase it, persistent drift would otherwise never re-fire. Re-arm
		// so the caller can fix the input (or the fleet) and the very next
		// drifted window triggers again.
		ar.det.Rearm()
		return nil, err
	}
	return ev, nil
}

// resolve runs the triggered warm re-solve and commits its outcome (new
// incumbent, rebased detector). It mutates ar only on success. Observe
// calls it with ar.mu held.
//
//kairos:locked
func (ar *AutoReconsolidator) resolve(ctx context.Context, trig *DriftTrigger) (*ReconsolidationEvent, error) {
	forecast, err := forecastWorkloads(ar.history)
	if err != nil {
		return nil, fmt.Errorf("kairos: building forecast series: %w", err)
	}
	problem := &Problem{Workloads: forecast, Machines: ar.machines, Disk: ar.dp}
	staleObj, staleFeas, _, err := core.PriceIncumbent(problem, ar.inc)
	if err != nil {
		return nil, &ResolveError{Err: err}
	}
	// Validate the forecast as a detector baseline before solving: once the
	// advance hook has journaled the event, the commit below must not fail.
	fcSamples, err := driftSamples(forecast)
	if err != nil {
		return nil, err
	}
	//kairoslint:allow lockorder: the warm re-solve's worker pool always drains; ctx aborts it on shutdown
	plan, err := reconsolidate(ctx, forecast, ar.machines, ar.dp, ar.inc, ar.opt.Resolve)
	if err != nil {
		return nil, &ResolveError{Err: err}
	}
	ev := &ReconsolidationEvent{
		Window:         trig.Window,
		Trigger:        trig,
		Plan:           plan,
		StaleObjective: staleObj,
		StaleFeasible:  staleFeas,
		ObjectiveDelta: staleObj - plan.Objective,
	}
	// Write-ahead: the control plane journals the advance before anything
	// publishes. A hook failure aborts the commit entirely.
	if ar.onAdvance != nil {
		if err := ar.onAdvance(ev); err != nil {
			return nil, err
		}
	}
	// The new plan was solved against the forecast: that is the assumption
	// set future windows drift against.
	if err := ar.det.SetBaseline(fcSamples); err != nil {
		return nil, err
	}
	ar.baseline = forecast
	ar.inc = plan.Incumbent()
	return ev, nil
}

// observeDetectOnly runs one observation window through the detector and
// forecast history exactly as Observe does — same state machine, same
// trimming — but never solves: a fired trigger is only reported. Replay
// uses it to reconsume journaled windows (the journaled advance, not a
// fresh solve, decides what the trigger led to), and the control plane
// uses it to keep monitoring while a reconcile loop is backing off.
func (ar *AutoReconsolidator) observeDetectOnly(observed []Workload) (triggered bool, err error) {
	samples, err := driftSamples(observed)
	if err != nil {
		return false, err
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	trig, err := ar.det.Observe(samples)
	if err != nil {
		return false, err
	}
	ar.history = append(ar.history, observed)
	if len(ar.history) > ar.histLen {
		ar.history = ar.history[len(ar.history)-ar.histLen:]
	}
	return trig != nil, nil
}

// rearm forces the detector back to armed with no cool-down, undoing the
// disarm a trigger caused when its re-solve never committed.
func (ar *AutoReconsolidator) rearm() {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.det.Rearm()
}

// replayAdvance re-commits a journaled incumbent advance: the forecast is
// rebuilt from the replayed history (deterministic — the same windows the
// live solve forecast from), the journaled incumbent is materialized
// against it without re-solving, and detector baseline + incumbent move
// exactly as the live commit moved them.
func (ar *AutoReconsolidator) replayAdvance(inc *Incumbent) (*Plan, error) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if len(ar.history) == 0 {
		return nil, fmt.Errorf("kairos: replayed advance with no observation history")
	}
	forecast, err := forecastWorkloads(ar.history)
	if err != nil {
		return nil, fmt.Errorf("kairos: rebuilding forecast for replayed advance: %w", err)
	}
	problem := &Problem{Workloads: forecast, Machines: ar.machines, Disk: ar.dp}
	sol, err := core.SolutionFromIncumbent(problem, inc)
	if err != nil {
		return nil, err
	}
	plan, err := newPlan(problem, sol)
	if err != nil {
		return nil, err
	}
	fcSamples, err := driftSamples(forecast)
	if err != nil {
		return nil, err
	}
	if err := ar.det.SetBaseline(fcSamples); err != nil {
		return nil, err
	}
	ar.baseline = forecast
	ar.inc = plan.Incumbent()
	return plan, nil
}

// checkpoint exports the loop's full durable state under ar.mu.
func (ar *AutoReconsolidator) checkpoint() (baseline []Workload, history [][]Workload, inc *Incumbent, window int, armed bool, cooldown int) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	history = make([][]Workload, len(ar.history))
	for i, w := range ar.history {
		history[i] = append([]Workload(nil), w...)
	}
	return append([]Workload(nil), ar.baseline...), history, ar.inc,
		ar.det.Window(), ar.det.Armed(), ar.det.Cooldown()
}

// restore seeds a freshly built loop with checkpointed history and
// detector counters. Call it before the first Observe.
func (ar *AutoReconsolidator) restore(history [][]Workload, window int, armed bool, cooldown int) error {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	for _, w := range history {
		samples, err := driftSamples(w)
		if err != nil {
			return fmt.Errorf("kairos: restoring observation history: %w", err)
		}
		if err := ar.det.SeedHistory(samples); err != nil {
			return err
		}
	}
	ar.history = append([][]Workload(nil), history...)
	if len(ar.history) > ar.histLen {
		ar.history = ar.history[len(ar.history)-ar.histLen:]
	}
	ar.det.Restore(window, armed, cooldown)
	return nil
}

// Watch drives an AutoReconsolidator over a sequence of observation
// windows and collects the re-consolidation events that fired. It returns
// the events and the final incumbent plan (the last re-solve's, or the
// original when nothing fired).
//
// Deprecated: use NewFleet(FleetSpec{...}, WithIncumbent(inc),
// WithDrift(opt.Drift), WithResolveOptions(opt.Resolve)) and stream the
// windows through (*Fleet).Observe — the session keeps the event log and
// serves the current plan while the stream is live.
func Watch(inc *Incumbent, baseline []Workload, windows [][]Workload, machines []Machine, dp *DiskProfile, opt WatchOptions) ([]*ReconsolidationEvent, *Incumbent, error) {
	f, err := NewFleet(FleetSpec{Workloads: baseline, Machines: machines, Disk: dp},
		WithIncumbent(inc), WithDrift(opt.Drift), WithResolveOptions(opt.Resolve))
	if err != nil {
		return nil, nil, err
	}
	// Build the watch loop eagerly so invalid incumbents and baselines
	// error before any window is consumed, as this function always has.
	f.mu.Lock()
	_, err = f.watchLoopLocked()
	f.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	for _, w := range windows {
		//kairoslint:allow ctxflow: deprecated wrapper, legacy signature has no ctx
		if _, err := f.Observe(context.Background(), w); err != nil {
			return f.Events(), f.Incumbent(), err
		}
	}
	return f.Events(), f.Incumbent(), nil
}

// driftSamples converts consolidation workloads into the detector's
// observation form: CPU and RAM map directly, and the disk signal is the
// disk model's input (update rate), falling back to the measured write
// rate for trace-only fleets. Every series of a workload must share its
// CPU series' shape (the same invariant core.Problem.Validate enforces):
// the detector only cross-checks the series it tracks, and an untracked
// series with a different shape would otherwise slip into the forecast
// history and break MeanOfWindows at trigger time — after the window was
// already recorded.
func driftSamples(wls []Workload) ([]drift.Sample, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("kairos: no workloads in window")
	}
	out := make([]drift.Sample, len(wls))
	seen := make(map[string]bool, len(wls))
	for i, w := range wls {
		if w.Name == "" {
			return nil, fmt.Errorf("kairos: workload %d has no name (watch matches by name)", i)
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("kairos: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.CPU == nil || w.RAMBytes == nil {
			return nil, fmt.Errorf("kairos: workload %q missing CPU or RAM series", w.Name)
		}
		for _, s := range []*series.Series{w.RAMBytes, w.WSBytes, w.UpdateRate, w.DiskWriteBps} {
			if s != nil && (s.Len() != w.CPU.Len() || s.Step != w.CPU.Step) {
				return nil, fmt.Errorf("kairos: workload %q series shape mismatch within the window", w.Name)
			}
		}
		s := drift.Sample{Workload: w.Name, CPU: w.CPU, RAM: w.RAMBytes, Disk: w.UpdateRate}
		if s.Disk == nil {
			s.Disk = w.DiskWriteBps
		}
		out[i] = s
	}
	return out, nil
}

// forecastWorkloads builds the re-solve's workload series: for every
// workload of the latest window, each series is the element-wise mean of
// that workload's series across the retained windows (placement metadata —
// replicas, pins, SLAs — carries over from the latest observation).
func forecastWorkloads(history [][]Workload) ([]Workload, error) {
	latest := history[len(history)-1]
	out := make([]Workload, len(latest))
	for i, w := range latest {
		fc := w // copy metadata (Name, Replicas, PinTo, SLA, ...)
		for _, get := range []func(*Workload) **series.Series{
			func(w *Workload) **series.Series { return &w.CPU },
			func(w *Workload) **series.Series { return &w.RAMBytes },
			func(w *Workload) **series.Series { return &w.WSBytes },
			func(w *Workload) **series.Series { return &w.UpdateRate },
			func(w *Workload) **series.Series { return &w.DiskWriteBps },
		} {
			if *get(&w) == nil {
				continue
			}
			var windows []*series.Series
			for wi := range history {
				for wj := range history[wi] {
					if history[wi][wj].Name != w.Name {
						continue
					}
					if s := *get(&history[wi][wj]); s != nil {
						windows = append(windows, s)
					}
					break
				}
			}
			mean, err := predict.MeanOfWindows(windows)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", w.Name, err)
			}
			*get(&fc) = mean
		}
		out[i] = fc
	}
	return out, nil
}
