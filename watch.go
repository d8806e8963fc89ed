package kairos

import (
	"fmt"
	"strings"

	"kairos/internal/drift"
	"kairos/internal/predict"
	"kairos/internal/series"
)

// This file holds what a Fleet's detect and solve steps are made of: the
// drift-detection types, the re-consolidation event, the conversion of
// workloads into the detector's samples, and the forecast a triggered
// re-solve runs on (the rolling mean of recent windows — the paper's
// average-of-weeks predictor) instead of the stale profile.

// Re-exported drift-detection building blocks.
type (
	// DriftConfig tunes the drift detector's threshold, cool-down,
	// forecast history and workload quorum.
	DriftConfig = drift.Config
	// DriftTrigger reports which workloads drifted, by how much, on which
	// resource.
	DriftTrigger = drift.Trigger
	// DriftCause is one drifted (workload, resource, signal) triple.
	DriftCause = drift.Cause
)

// ReconsolidationEvent is one drift-triggered re-solve of a Fleet.
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

	// forecast is the series the plan was solved against, and samples the
	// same in the detector's form: what committing the event rebases the
	// detector onto. gen is the session generation Resolve stamped.
	forecast []Workload
	samples  []drift.Sample
	gen      uint64
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

// ResolveError marks a drift-triggered re-solve that failed in the solver
// itself (as opposed to a rejected window). The control plane backs off
// the fleet's re-solves on it.
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

// driftSamples converts consolidation workloads into the detector's
// observation form: CPU and RAM map directly, and the disk signal is the
// disk model's input (update rate), falling back to the measured write
// rate for trace-only fleets. Every series of a workload must share its
// CPU series' shape (the same invariant core.Problem.Validate enforces):
// the detector only cross-checks the series it tracks, and an untracked
// series with a different shape would otherwise slip into the forecast
// history and break MeanOfWindows at trigger time — after the window was
// already recorded. Duplicate names are the detector's to refuse.
func driftSamples(wls []Workload) ([]drift.Sample, error) {
	if len(wls) == 0 {
		return nil, fmt.Errorf("kairos: no workloads in window")
	}
	out := make([]drift.Sample, len(wls))
	for i, w := range wls {
		if w.Name == "" {
			return nil, fmt.Errorf("kairos: workload %d has no name (watch matches by name)", i)
		}
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

// forecastWorkloads builds the re-solve's workload set from the fleet's
// baseline (the spec until a trigger commits, then the last forecast): for
// every baseline workload, in registration order, each series is the
// element-wise mean of that workload's series across the retained windows
// that carry it, and stays the baseline's where none does. A window's entry
// for a workload is its first one of that name. Placement metadata —
// replicas, pins, SLAs — is the baseline's: a window measures load, it
// does not re-register. The live re-solve and ReplayAdvance both forecast
// with it.
func forecastWorkloads(baseline []Workload, history [][]Workload) ([]Workload, error) {
	// at[w*n+i] is baseline workload i's entry in window w, -1 where the
	// window does not carry it: each window is read once, not once per
	// workload and series.
	n := len(baseline)
	slot := make(map[string]int, n)
	for i := n - 1; i >= 0; i-- {
		slot[baseline[i].Name] = i
	}
	at := make([]int, len(history)*n)
	for i := range at {
		at[i] = -1
	}
	for w, win := range history {
		row := at[w*n : (w+1)*n]
		for j := range win {
			if i, ok := slot[win[j].Name]; ok && row[i] < 0 {
				row[i] = j
			}
		}
	}
	out := make([]Workload, n)
	windows := make([]*series.Series, 0, len(history))
	for i, b := range baseline {
		first := slot[b.Name] // a repeated baseline name reads the first's entries
		fc := b
		for _, get := range []func(*Workload) **series.Series{
			func(w *Workload) **series.Series { return &w.CPU },
			func(w *Workload) **series.Series { return &w.RAMBytes },
			func(w *Workload) **series.Series { return &w.WSBytes },
			func(w *Workload) **series.Series { return &w.UpdateRate },
			func(w *Workload) **series.Series { return &w.DiskWriteBps },
		} {
			windows = windows[:0]
			for w, win := range history {
				if j := at[w*n+first]; j >= 0 {
					if s := *get(&win[j]); s != nil {
						windows = append(windows, s)
					}
				}
			}
			if len(windows) == 0 {
				continue
			}
			mean, err := predict.MeanOfWindows(windows)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", b.Name, err)
			}
			*get(&fc) = mean
		}
		out[i] = fc
	}
	return out, nil
}
