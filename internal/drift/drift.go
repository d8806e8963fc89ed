// Package drift detects when a fleet's observed workload behaviour has
// departed from the assumptions an incumbent consolidation plan was built
// on — the monitoring half of event-driven re-consolidation. The paper's
// premise (Section 7.5) is that consolidation is only as good as the
// monitoring loop behind it: profiles drift week over week, forecasts err,
// and the plan must follow. A Detector consumes one observation window per
// workload at a time (monitor.Profile series, rrd.Fetch output, or CSV
// traces), tracks two drift signals against the plan's baseline series —
//
//  1. utilization delta: the relative change of a window's mean resource
//     demand versus the baseline series the plan was solved against, and
//  2. forecast error: the CV(RMSE) of a rolling mean-of-recent-windows
//     forecast (predict.RollingRMSE, the paper's average-of-weeks
//     predictor restated for streaming windows) scored against the window,
//
// and emits a typed Trigger naming which workloads drifted, by how much,
// and on which resource when a configurable threshold is crossed. A
// trigger changes nothing in the detector; the commit of its re-solve
// (SetBaseline) starts a cool-down, a number of windows during which
// nothing fires while the new plan settles. A trigger that never commits
// leaves the detector as a quiet window would, so persistent drift fires
// again on the next window.
package drift

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kairos/internal/floats"
	"kairos/internal/predict"
	"kairos/internal/series"
)

// Resource identifies which monitored resource a drift signal concerns.
type Resource int

const (
	// CPU is the utilization series (fraction of the machine).
	CPU Resource = iota
	// RAM is the memory requirement series (bytes).
	RAM
	// Disk is the disk-model input series (row update rate, falling back
	// to measured write throughput for trace-only fleets).
	Disk
)

// String implements fmt.Stringer.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case RAM:
		return "ram"
	case Disk:
		return "disk"
	default:
		return fmt.Sprintf("resource(%d)", int(r))
	}
}

// resources is the fixed evaluation order.
var resources = [...]Resource{CPU, RAM, Disk}

// Kind distinguishes the two drift signals.
type Kind int

const (
	// UtilizationDelta is the relative change of a window's mean demand
	// versus the baseline series the incumbent plan assumed.
	UtilizationDelta Kind = iota
	// ForecastError is the CV(RMSE) of the rolling forecast for the window.
	ForecastError
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case UtilizationDelta:
		return "utilization-delta"
	case ForecastError:
		return "forecast-error"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Config tunes a Detector. The zero value is not valid; see NewDetector.
type Config struct {
	// Threshold is the relative drift at which a trigger fires (0.05 means
	// a 5% utilization delta or a 5% CV(RMSE) forecast miss). A signal
	// exactly at the threshold fires. Must be positive.
	Threshold float64
	// Cooldown is the number of observation windows after a rebase
	// (SetBaseline, a committed re-solve) during which no trigger fires,
	// regardless of drift. 0 disables.
	Cooldown int
	// History is the number of recent windows averaged into the rolling
	// forecast (and retained for it). It counts windows, not appearances:
	// a window that omits a workload, or a resource's series, still ages
	// that workload's forecast by one, so its forecast averages the
	// windows of the last History that carried it (and has no signal when
	// none did). 0 defaults to 2.
	History int
	// MinWorkloads is how many distinct workloads must drift past the
	// threshold for a trigger to fire. 0 defaults to 1.
	MinWorkloads int
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.History == 0 {
		c.History = 2
	}
	if c.MinWorkloads == 0 {
		c.MinWorkloads = 1
	}
	return c
}

// Sample is one workload's observation over one evaluation window. Any
// series may be nil; only resources present in both the baseline and the
// observation are scored.
type Sample struct {
	// Workload names the workload; must be unique within a window.
	Workload string
	// CPU, RAM, Disk are the window's series for each resource.
	CPU, RAM, Disk *series.Series
}

func (s *Sample) get(r Resource) *series.Series {
	switch r {
	case CPU:
		return s.CPU
	case RAM:
		return s.RAM
	default:
		return s.Disk
	}
}

// Cause is one drifted (workload, resource, signal) triple of a Trigger.
type Cause struct {
	// Workload names the drifted workload.
	Workload string
	// Resource is the drifted resource.
	Resource Resource
	// Kind says which signal crossed the threshold.
	Kind Kind
	// Drift is the relative magnitude (fraction, not percent).
	Drift float64
}

// String implements fmt.Stringer.
func (c Cause) String() string {
	return fmt.Sprintf("%s/%s %s %.1f%%", c.Workload, c.Resource, c.Kind, c.Drift*100)
}

// Trigger reports that drift crossed the threshold on one observation
// window: which workloads drifted, by how much, on which resource.
type Trigger struct {
	// Window is the 0-based index of the observation window that fired.
	Window int
	// Causes lists every (workload, resource, signal) at or above the
	// threshold, largest drift first.
	Causes []Cause
	// MaxDrift is the largest cause's drift.
	MaxDrift float64
	// Workloads counts the distinct workloads among Causes.
	Workloads int
}

// String implements fmt.Stringer.
func (t *Trigger) String() string {
	top := ""
	if len(t.Causes) > 0 {
		top = ": " + t.Causes[0].String()
	}
	return fmt.Sprintf("drift trigger at window %d (%d workloads, max %.1f%%%s)",
		t.Window, t.Workloads, t.MaxDrift*100, top)
}

// baseline is the per-resource assumption the incumbent plan was built on.
type baseline struct {
	mean  [len(resources)]float64
	have  [len(resources)]bool
	shape [len(resources)]shape
}

// shape pins the series geometry every observation window must match.
type shape struct {
	n    int
	step time.Duration
}

// workloadState is the detector's per-workload tracking state.
type workloadState struct {
	base baseline
	// history holds, per tracked resource, a slot for each of the last
	// cfg.History recorded windows, oldest first, feeding the rolling
	// forecast: the window's series, or nil where the window did not carry
	// it (the workload was absent, or sent no series for the resource). So
	// the forecast is the last cfg.History windows, not the last cfg.History
	// appearances, whether the windows were observed or seeded. Every
	// series has the resource's baseline shape: Observe and SeedHistory
	// refuse any other, and SetBaseline drops the windows of a resource
	// whose shape it changes, so the forecast is scored without a shape
	// check.
	history [len(resources)][]*series.Series
}

// Detector tracks drift for a set of workloads against the incumbent
// plan's baseline assumptions. It is not safe for concurrent use.
type Detector struct {
	cfg    Config
	state  map[string]*workloadState
	window int
	// cooldown counts the windows still suppressed after the last rebase.
	cooldown int
}

// Validate reports whether cfg is a configuration NewDetector accepts.
func (c Config) Validate() error {
	if !(c.Threshold > 0) || math.IsInf(c.Threshold, 0) {
		return fmt.Errorf("drift: threshold %v must be positive and finite", c.Threshold)
	}
	if c.Cooldown < 0 || c.History < 0 || c.MinWorkloads < 0 {
		return fmt.Errorf("drift: negative cooldown/history/min-workloads")
	}
	return nil
}

// NewDetector creates a detector with the given configuration and baseline
// samples — the per-workload series the incumbent plan was solved against.
// The first baseline starts no cool-down.
func NewDetector(cfg Config, baselines []Sample) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg.withDefaults(), state: map[string]*workloadState{}}
	if err := d.SetBaseline(baselines); err != nil {
		return nil, err
	}
	d.cooldown = 0
	return d, nil
}

// SetBaseline replaces the plan assumptions the utilization-delta signal
// compares against and starts the cool-down — call it when a re-solve
// commits, so drift is measured against the new plan and the windows
// right after it, the plan settling, fire nothing. Observation history is
// preserved: the forecast tracks reality, not the plan. Only a resource
// whose series shape the new baseline changes loses its history, since no
// later window of that resource can be scored against it.
func (d *Detector) SetBaseline(baselines []Sample) error {
	if len(baselines) == 0 {
		return fmt.Errorf("drift: no baseline samples")
	}
	seen := make(map[string]bool, len(baselines))
	next := make(map[string]*workloadState, len(baselines))
	for i := range baselines {
		s := &baselines[i]
		if s.Workload == "" {
			return fmt.Errorf("drift: baseline sample %d has no workload name", i)
		}
		if seen[s.Workload] {
			return fmt.Errorf("drift: duplicate baseline workload %q", s.Workload)
		}
		seen[s.Workload] = true
		ws := d.state[s.Workload]
		if ws == nil {
			ws = &workloadState{}
		}
		var any bool
		for ri, r := range resources {
			sr := s.get(r)
			if sr == nil || sr.Len() == 0 {
				ws.base.have[ri] = false
				continue
			}
			sh := shape{n: sr.Len(), step: sr.Step}
			if sh != ws.base.shape[ri] {
				ws.history[ri] = nil
			}
			ws.base.have[ri] = true
			ws.base.mean[ri] = sr.Mean()
			ws.base.shape[ri] = sh
			any = true
		}
		if !any {
			return fmt.Errorf("drift: baseline workload %q has no series", s.Workload)
		}
		next[s.Workload] = ws
	}
	d.state = next
	d.cooldown = d.cfg.Cooldown
	return nil
}

// Window returns how many observation windows have been consumed.
func (d *Detector) Window() int { return d.window }

// Cooldown returns how many windows after the last rebase remain
// suppressed. Together with Window it is the detector's full counter
// state, checkpointed by the control plane's durability layer.
func (d *Detector) Cooldown() int { return d.cooldown }

// SeedHistory appends one already-consumed observation window to the
// rolling-forecast history without scoring it or advancing the window
// counter — the restore half of a checkpoint. It records exactly what
// Observe would have recorded for the same samples, and refuses, with
// Observe's error and recording nothing, a window Observe would refuse for
// its shape; restore the counters separately with Restore.
func (d *Detector) SeedHistory(samples []Sample) error {
	for i := range samples {
		s := &samples[i]
		ws := d.state[s.Workload]
		if ws == nil {
			return fmt.Errorf("drift: seeded workload %q is not in the baseline", s.Workload)
		}
		for _, r := range resources {
			if err := ws.checkShape(s, r); err != nil {
				return err
			}
		}
	}
	d.record(samples)
	return nil
}

// checkShape refuses a sample whose series of resource r, if the baseline
// tracks r, is not the baseline's shape.
func (ws *workloadState) checkShape(s *Sample, r Resource) error {
	sr := s.get(r)
	if sr == nil || !ws.base.have[r] {
		return nil
	}
	if sh := ws.base.shape[r]; sr.Len() != sh.n || sr.Step != sh.step {
		return fmt.Errorf("drift: workload %q %v window shape (%d×%v) differs from baseline (%d×%v)",
			s.Workload, r, sr.Len(), sr.Step, sh.n, sh.step)
	}
	return nil
}

// record ages every tracked (workload, resource) of the forecast history
// by one slot, keeping the last cfg.History, and fills the new slot with
// the window's series where it carries one. The window has been checked.
func (d *Detector) record(samples []Sample) {
	for _, ws := range d.state {
		for ri := range resources {
			if !ws.base.have[ri] {
				continue
			}
			h := append(ws.history[ri], nil)
			if len(h) > d.cfg.History {
				h = h[len(h)-d.cfg.History:]
			}
			ws.history[ri] = h
		}
	}
	for i := range samples {
		s := &samples[i]
		ws := d.state[s.Workload]
		for ri, r := range resources {
			if ws.base.have[ri] {
				h := ws.history[ri]
				h[len(h)-1] = s.get(r)
			}
		}
	}
}

// Restore sets the detector's counter state — window count and remaining
// cool-down — to checkpointed values, so a rebuilt detector resumes
// exactly where the crashed one stopped (a detector that was mid-cool-down
// must not fire on its first replayed window).
func (d *Detector) Restore(window, cooldown int) {
	d.window = window
	d.cooldown = cooldown
}

// Observe consumes one observation window for the fleet and returns a
// non-nil Trigger when drift fires; a firing window changes the detector
// as a quiet one does (the cool-down starts at SetBaseline). Workloads
// absent from the window are skipped (no signal, and an empty slot in
// their forecast history); workloads the baseline does not track are an
// error, as are windows whose series shape differs from the baseline's.
func (d *Detector) Observe(samples []Sample) (*Trigger, error) {
	causes, err := d.score(samples)
	if err != nil {
		return nil, err
	}
	window := d.window
	d.window++

	// Record history after scoring, so a window is never its own forecast.
	d.record(samples)

	// The windows right after a re-solve are the plan settling.
	if d.cooldown > 0 {
		d.cooldown--
		return nil, nil
	}
	fleet := map[string]bool{}
	var firing []Cause
	for _, c := range causes {
		if c.Drift >= d.cfg.Threshold {
			firing = append(firing, c)
			fleet[c.Workload] = true
		}
	}
	if len(fleet) < d.cfg.MinWorkloads {
		return nil, nil
	}
	sort.Slice(firing, func(i, j int) bool {
		a, b := firing[i], firing[j]
		if !floats.Same(a.Drift, b.Drift) {
			return a.Drift > b.Drift
		}
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})
	return &Trigger{
		Window:    window,
		Causes:    firing,
		MaxDrift:  firing[0].Drift,
		Workloads: len(fleet),
	}, nil
}

// score computes every (workload, resource, signal) drift for one window.
func (d *Detector) score(samples []Sample) ([]Cause, error) {
	var causes []Cause
	seen := make(map[string]bool, len(samples))
	for i := range samples {
		s := &samples[i]
		ws := d.state[s.Workload]
		if ws == nil {
			return nil, fmt.Errorf("drift: workload %q is not in the baseline", s.Workload)
		}
		if seen[s.Workload] {
			return nil, fmt.Errorf("drift: duplicate workload %q in window", s.Workload)
		}
		seen[s.Workload] = true
		for ri, r := range resources {
			sr := s.get(r)
			if sr == nil {
				continue
			}
			if !ws.base.have[ri] {
				continue // resource untracked by the plan
			}
			if err := ws.checkShape(s, r); err != nil {
				return nil, err
			}
			mean := sr.Mean()
			if du, ok := utilizationDelta(ws.base.mean[ri], mean); ok {
				causes = append(causes, Cause{s.Workload, r, UtilizationDelta, du})
			}
			// A non-positive window mean makes CV(RMSE) undefined: no
			// forecast signal rather than a fake one, as for a history whose
			// slots are all empty (RollingRMSE is NaN). The CV goes through
			// its percentage, rounded, as predict.WeeklyForecast.CVRMSEPct
			// does, so a threshold sees the same bits either way.
			if len(ws.history[ri]) > 0 && mean > 0 {
				if cv := float64(predict.RollingRMSE(ws.history[ri], sr)/mean*100) / 100; !math.IsNaN(cv) {
					causes = append(causes, Cause{s.Workload, r, ForecastError, cv})
				}
			}
		}
	}
	return causes, nil
}

// utilizationDelta scores the relative mean shift of a window against the
// baseline. A non-positive baseline mean has no meaningful relative scale:
// a window that is also non-positive is no drift, and one that came alive
// counts as fully drifted (1.0).
func utilizationDelta(base, obs float64) (float64, bool) {
	if math.IsNaN(base) || math.IsNaN(obs) {
		return 0, false
	}
	if base <= 0 {
		if obs <= 0 {
			return 0, true
		}
		return 1, true
	}
	return math.Abs(obs-base) / base, true
}
