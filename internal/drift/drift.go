// Package drift detects when a fleet's observed workload behaviour has
// departed from the assumptions an incumbent consolidation plan was built
// on — the monitoring half of event-driven re-consolidation. The paper's
// premise (Section 7.5) is that consolidation is only as good as the
// monitoring loop behind it: profiles drift week over week, forecasts err,
// and the plan must follow. A Detector consumes one observation window per
// workload at a time (monitor.Profile series or CSV traces), tracks two
// drift signals against the plan's baseline series —
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
// again on the next window. The forecast's input is the last History
// windows as the detector was given them, read against whatever baseline
// is current when it scores: what the detector retains does not depend on
// what the baseline tracks, so re-seeding those windows restores it.
package drift

import (
	"fmt"
	"math"
	"sort"
	"time"

	"kairos/internal/cpu"
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
	// Disk is the disk-model input series, the row update rate (rows/s).
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
	// History is the number of recent windows the detector keeps, as it
	// was given them, and averages into the rolling forecast. It counts
	// windows, not appearances: a window that omits a workload's series,
	// or carries it in another shape than the baseline's, still counts, so
	// a forecast averages the windows of the last History that carried the
	// series (and has no signal when none did). 0 defaults to 2.
	History int
	// MinWorkloads is how many distinct workloads must drift past the
	// threshold for a trigger to fire. 0 defaults to 1.
	MinWorkloads int
}

// DefaultConfig is the detector a fleet session runs unless told
// otherwise: a 4 % threshold, one window of cool-down after a rebase, and
// the zero-value defaults WithDefaults resolves.
func DefaultConfig() Config {
	return Config{Threshold: 0.04, Cooldown: 1}.WithDefaults()
}

// WithDefaults resolves the documented zero-value defaults, as NewDetector
// does.
func (c Config) WithDefaults() Config {
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
	return [...]*series.Series{CPU: s.CPU, RAM: s.RAM, Disk: s.Disk}[r]
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

// tracked reports whether the current baseline names the workload.
func (b *baseline) tracked() bool { return b.have[CPU] || b.have[RAM] || b.have[Disk] }

// shape pins the series geometry every observation window must match.
type shape struct {
	n    int
	step time.Duration
}

// keptWindow is one retained observation window: its samples as Observe or
// SeedHistory received them, and at, each workload slot's index into
// samples (-1 where the window does not carry the workload; a slot past
// len(at) was first met after the window).
type keptWindow struct {
	samples []Sample
	at      []int32
}

// Detector tracks drift for a set of workloads against the incumbent
// plan's baseline assumptions. It is not safe for concurrent use.
type Detector struct {
	cfg Config
	// slot numbers every workload a baseline has named, in the order
	// SetBaseline first met them; a slot is never reused.
	slot map[string]int32
	// base is each slot's baseline; a slot the current baseline does not
	// name tracks no resource.
	base []baseline
	// kept is the last cfg.History windows, oldest first: the rolling
	// forecast's input, whatever the baseline tracks.
	kept []keptWindow
	// scored is score's scratch: each slot's causes and forecast series.
	scored []slotScore
	// window counts the windows consumed, cooldown those still suppressed
	// after the last rebase.
	window, cooldown int
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
	d := &Detector{cfg: cfg.WithDefaults(), slot: map[string]int32{}}
	if err := d.SetBaseline(baselines); err != nil {
		return nil, err
	}
	d.cooldown = 0
	return d, nil
}

// SetBaseline replaces the plan assumptions the utilization-delta signal
// compares against and starts the cool-down — call it when a re-solve
// commits, so drift is measured against the new plan and the windows
// right after it, the plan settling, fire nothing. The kept windows stay
// as they are: the forecast tracks reality, not the plan, and reads them
// against whatever baseline is current when it scores.
func (d *Detector) SetBaseline(baselines []Sample) error {
	if len(baselines) == 0 {
		return fmt.Errorf("drift: no baseline samples")
	}
	next := make([]baseline, len(d.slot), len(d.slot)+len(baselines))
	for i := range baselines {
		s := &baselines[i]
		if s.Workload == "" {
			return fmt.Errorf("drift: baseline sample %d has no workload name", i)
		}
		slot, ok := d.slot[s.Workload]
		if !ok {
			slot = int32(len(d.slot))
			d.slot[s.Workload] = slot
			next = append(next, baseline{})
		}
		b := &next[slot]
		if b.tracked() {
			return fmt.Errorf("drift: duplicate baseline workload %q", s.Workload)
		}
		for ri, r := range resources {
			if sr := s.get(r); sr != nil && sr.Len() > 0 {
				b.have[ri], b.mean[ri], b.shape[ri] = true, sr.Mean(), shape{n: sr.Len(), step: sr.Step}
			}
		}
		if !b.tracked() {
			return fmt.Errorf("drift: baseline workload %q has no series", s.Workload)
		}
	}
	d.base = next
	d.cooldown = d.cfg.Cooldown
	return nil
}

// Window returns how many observation windows have been consumed.
func (d *Detector) Window() int { return d.window }

// Cooldown returns how many windows after the last rebase remain
// suppressed. Together with Window it is the detector's full counter
// state, checkpointed by the control plane's durability layer.
func (d *Detector) Cooldown() int { return d.cooldown }

// SeedHistory keeps one already-consumed observation window for the
// rolling forecast without scoring it or advancing the window counter —
// the restore half of a checkpoint. It refuses, with Observe's error and
// keeping nothing, exactly the windows Observe refuses, and keeps the
// others as Observe does: samples itself, which the caller must not edit
// afterwards. Restore the counters separately with Restore.
func (d *Detector) SeedHistory(samples []Sample) error {
	at, err := d.index(samples)
	if err != nil {
		return err
	}
	d.record(samples, at)
	return nil
}

// index checks a window — every workload in the baseline and none twice,
// every series of a tracked resource of the baseline's shape — and returns
// each slot's index into samples, -1 for a slot the window does not carry.
func (d *Detector) index(samples []Sample) ([]int32, error) {
	at := make([]int32, len(d.base))
	for i := range at {
		at[i] = -1
	}
	for i := range samples {
		s := &samples[i]
		slot, ok := d.slot[s.Workload] // a refused baseline names slots past d.base
		if !ok || int(slot) >= len(d.base) || !d.base[slot].tracked() {
			return nil, fmt.Errorf("drift: workload %q is not in the baseline", s.Workload)
		}
		if at[slot] >= 0 {
			return nil, fmt.Errorf("drift: duplicate workload %q in window", s.Workload)
		}
		if err := d.base[slot].checkShape(s); err != nil {
			return nil, err
		}
		at[slot] = int32(i)
	}
	return at, nil
}

// checkShape refuses a sample with a series of a tracked resource that is
// not the baseline's shape.
func (b *baseline) checkShape(s *Sample) error {
	for ri, r := range resources {
		sr := s.get(r)
		if sr == nil || !b.have[ri] {
			continue
		}
		if sh := b.shape[ri]; sr.Len() != sh.n || sr.Step != sh.step {
			return fmt.Errorf("drift: workload %q %v window shape (%d×%v) differs from baseline (%d×%v)",
				s.Workload, r, sr.Len(), sr.Step, sh.n, sh.step)
		}
	}
	return nil
}

// record keeps a checked window, evicting the oldest beyond cfg.History.
func (d *Detector) record(samples []Sample, at []int32) {
	if len(d.kept) == d.cfg.History {
		d.kept = append(d.kept[:0], d.kept[1:]...)
	}
	d.kept = append(d.kept, keptWindow{samples, at})
}

// Restore sets the detector's counter state — window count and remaining
// cool-down — to checkpointed values, so a rebuilt detector resumes
// exactly where the crashed one stopped (a detector that was mid-cool-down
// must not fire on its first replayed window).
func (d *Detector) Restore(window, cooldown int) {
	d.window, d.cooldown = window, cooldown
}

// Observe consumes one observation window for the fleet and returns a
// non-nil Trigger when drift fires; a firing window changes the detector
// as a quiet one does (the cool-down starts at SetBaseline). Workloads
// absent from the window are skipped (no signal, and an empty slot in
// their forecast); workloads the baseline does not track are an error, as
// are duplicate workloads and series of a tracked resource whose shape
// differs from the baseline's. The detector keeps samples, which the
// caller must not edit afterwards, as one of the last History windows.
func (d *Detector) Observe(samples []Sample) (*Trigger, error) {
	at, err := d.index(samples)
	if err != nil {
		return nil, err
	}
	causes := d.score(samples, at)
	window := d.window
	d.window++

	// Record history after scoring, so a window is never its own forecast.
	d.record(samples, at)

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
	return &Trigger{Window: window, Causes: firing, MaxDrift: firing[0].Drift, Workloads: len(fleet)}, nil
}

// slotScore is one slot's share of a window's score: its causes, at most
// one per resource and signal, and the forecast series score gathers.
type slotScore struct {
	causes [len(resources) * 2]Cause
	n      int
	fc     []*series.Series
}

// score computes every (workload, resource, signal) drift for one window
// that index checked; at is its index. The slots are scored one item each
// of a cpu.Do, into their own slotScore, and their causes folded in slot
// order.
func (d *Detector) score(samples []Sample, at []int32) []Cause {
	if len(d.scored) < len(at) {
		d.scored = append(d.scored, make([]slotScore, len(at)-len(d.scored))...)
	}
	cpu.Do(len(at), func(_, slot int) {
		d.scoreSlot(samples, at, slot, &d.scored[slot])
	})
	var causes []Cause
	for slot := range at {
		sc := &d.scored[slot]
		causes = append(causes, sc.causes[:sc.n]...)
	}
	return causes
}

// scoreSlot scores one slot of a window into sc.
func (d *Detector) scoreSlot(samples []Sample, at []int32, slot int, sc *slotScore) {
	sc.n = 0
	i := at[slot]
	if i < 0 {
		return
	}
	s, b := &samples[i], &d.base[slot]
	for ri, r := range resources {
		sr := s.get(r)
		if sr == nil || !b.have[ri] {
			continue // no series, or a resource untracked by the plan
		}
		mean := sr.Mean()
		if du, ok := utilizationDelta(b.mean[ri], mean); ok {
			sc.causes[sc.n] = Cause{s.Workload, r, UtilizationDelta, du}
			sc.n++
		}
		// A non-positive window mean makes CV(RMSE) undefined: no
		// forecast signal rather than a fake one, as for a forecast with
		// no kept series. The CV goes through its percentage, rounded,
		// as predict.WeeklyForecast.CVRMSEPct does, so a threshold sees
		// the same bits either way.
		if mean <= 0 {
			continue
		}
		if sc.fc = d.forecast(sc.fc[:0], slot, ri); len(sc.fc) > 0 {
			if cv := float64(predict.RollingRMSE(sc.fc, sr)/mean*100) / 100; !math.IsNaN(cv) {
				sc.causes[sc.n] = Cause{s.Workload, r, ForecastError, cv}
				sc.n++
			}
		}
	}
}

// forecast appends a slot's series of resource ri from the kept windows,
// oldest first, to fc. A window that does not carry the series, or
// carries it in another shape than the baseline's, adds nothing: the
// forecast averages the windows of the last History that carried it.
func (d *Detector) forecast(fc []*series.Series, slot, ri int) []*series.Series {
	sh := d.base[slot].shape[ri]
	for _, w := range d.kept {
		if slot >= len(w.at) || w.at[slot] < 0 {
			continue
		}
		if sr := w.samples[w.at[slot]].get(resources[ri]); sr != nil && sr.Len() == sh.n && sr.Step == sh.step {
			fc = append(fc, sr)
		}
	}
	return fc
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
