package drift

import (
	"math"
	"strings"
	"testing"
	"time"

	"kairos/internal/series"
)

var t0 = time.Date(2011, 6, 12, 0, 0, 0, 0, time.UTC)

// constWindow builds a one-workload sample whose CPU series is constant v.
func constWindow(name string, v float64) Sample {
	return Sample{Workload: name, CPU: series.Constant(t0, time.Minute, 12, v)}
}

func mustDetector(t *testing.T, cfg Config, baselines ...Sample) *Detector {
	t.Helper()
	d, err := NewDetector(cfg, baselines)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func observe(t *testing.T, d *Detector, samples ...Sample) *Trigger {
	t.Helper()
	trig, err := d.Observe(samples)
	if err != nil {
		t.Fatal(err)
	}
	return trig
}

func TestNewDetectorValidation(t *testing.T) {
	base := []Sample{constWindow("a", 1)}
	for _, tc := range []struct {
		name string
		cfg  Config
		bl   []Sample
	}{
		{"zero threshold", Config{}, base},
		{"negative threshold", Config{Threshold: -0.1}, base},
		{"NaN threshold", Config{Threshold: math.NaN()}, base},
		{"rearm above threshold", Config{Threshold: 0.05, Rearm: 0.06}, base},
		{"negative cooldown", Config{Threshold: 0.05, Cooldown: -1}, base},
		{"no baselines", Config{Threshold: 0.05}, nil},
		{"unnamed baseline", Config{Threshold: 0.05}, []Sample{{CPU: base[0].CPU}}},
		{"duplicate baseline", Config{Threshold: 0.05}, []Sample{constWindow("a", 1), constWindow("a", 2)}},
		{"empty baseline sample", Config{Threshold: 0.05}, []Sample{{Workload: "a"}}},
	} {
		if _, err := NewDetector(tc.cfg, tc.bl); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestObserveValidation(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1))
	if _, err := d.Observe([]Sample{constWindow("ghost", 1)}); err == nil {
		t.Error("workload outside the baseline accepted")
	}
	if _, err := d.Observe([]Sample{constWindow("a", 1), constWindow("a", 1)}); err == nil {
		t.Error("duplicate workload in one window accepted")
	}
	short := Sample{Workload: "a", CPU: series.Constant(t0, time.Minute, 5, 1)}
	if _, err := d.Observe([]Sample{short}); err == nil {
		t.Error("window shape mismatch accepted")
	}
	badStep := Sample{Workload: "a", CPU: series.Constant(t0, time.Hour, 12, 1)}
	if _, err := d.Observe([]Sample{badStep}); err == nil {
		t.Error("window step mismatch accepted")
	}
}

// TestUtilizationThresholdBoundary pins the firing boundary: drift exactly
// at the threshold fires, drift one ulp-ish below does not.
func TestUtilizationThresholdBoundary(t *testing.T) {
	cases := []struct {
		name string
		obs  float64 // constant window value over baseline 1.0
		want bool
	}{
		{"well below", 1.01, false},
		{"just below", 1.0499, false},
		{"exactly at threshold", 1.05, true},
		{"above", 1.08, true},
		{"downward drift at threshold", 0.95, true},
		{"downward just inside", 0.9501, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1))
			trig := observe(t, d, constWindow("a", tc.obs))
			if got := trig != nil; got != tc.want {
				t.Fatalf("obs %v: trigger = %v, want %v", tc.obs, got, tc.want)
			}
			if trig == nil {
				return
			}
			if trig.Window != 0 || trig.Workloads != 1 || len(trig.Causes) == 0 {
				t.Errorf("trigger = %+v, want window 0, 1 workload", trig)
			}
			c := trig.Causes[0]
			if c.Workload != "a" || c.Resource != CPU || c.Kind != UtilizationDelta {
				t.Errorf("cause = %+v, want a/cpu utilization-delta", c)
			}
			if want := math.Abs(tc.obs - 1); math.Abs(c.Drift-want) > 1e-12 {
				t.Errorf("drift = %v, want %v", c.Drift, want)
			}
			if !strings.Contains(trig.String(), "a/cpu") {
				t.Errorf("trigger string %q should name the cause", trig)
			}
		})
	}
}

// TestForecastErrorSignal drives drift through the forecast-miss signal
// alone: the observed mean stays at the baseline (no utilization delta)
// while the shape departs from the rolling forecast.
func TestForecastErrorSignal(t *testing.T) {
	mkAlternating := func(amp float64) Sample {
		return Sample{Workload: "a", CPU: series.FromFunc(t0, time.Minute, 12, func(_ time.Time, i int) float64 {
			if i%2 == 0 {
				return 1 + amp
			}
			return 1 - amp
		})}
	}
	for _, tc := range []struct {
		name string
		amp  float64 // CV(RMSE) of the window vs a flat forecast = amp
		want bool
	}{
		{"below", 0.04, false},
		{"at threshold", 0.05, true},
		{"above", 0.10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1))
			// Window 0 builds forecast history; flat at the baseline, so
			// nothing fires.
			if trig := observe(t, d, constWindow("a", 1)); trig != nil {
				t.Fatalf("flat window fired: %v", trig)
			}
			trig := observe(t, d, mkAlternating(tc.amp))
			if got := trig != nil; got != tc.want {
				t.Fatalf("amp %v: trigger = %v, want %v", tc.amp, got, tc.want)
			}
			if trig != nil {
				c := trig.Causes[0]
				if c.Kind != ForecastError {
					t.Errorf("cause kind = %v, want forecast-error", c.Kind)
				}
				if math.Abs(c.Drift-tc.amp) > 1e-12 {
					t.Errorf("drift = %v, want %v", c.Drift, tc.amp)
				}
			}
		})
	}
}

// TestHysteresisRearm: after a trigger, drift hovering between the re-arm
// level and the threshold must not re-fire; only once the fleet calms to
// the re-arm level does the detector arm again.
func TestHysteresisRearm(t *testing.T) {
	// History 1 keeps the rolling forecast one window behind, so the
	// forecast-error signal of each step below is easy to compute by hand.
	d := mustDetector(t, Config{Threshold: 0.05, Rearm: 0.02, History: 1}, constWindow("a", 1))
	if trig := observe(t, d, constWindow("a", 1.06)); trig == nil {
		t.Fatal("initial above-threshold window should fire")
	}
	if d.Armed() {
		t.Fatal("detector should be disarmed after firing")
	}
	// Still above threshold: suppressed by hysteresis, not re-fired.
	if trig := observe(t, d, constWindow("a", 1.07)); trig != nil {
		t.Fatalf("hysteresis should suppress re-fire, got %v", trig)
	}
	// Between re-arm and threshold (util 3%, forecast |1.03-1.07|/1.03 ≈
	// 3.9%): still disarmed.
	if trig := observe(t, d, constWindow("a", 1.03)); trig != nil {
		t.Fatalf("drift above re-arm level should not re-arm, got %v", trig)
	}
	if d.Armed() {
		t.Fatal("detector re-armed above the re-arm level")
	}
	// At the re-arm level (util exactly 2%, forecast ≈1%): arms, but does
	// not fire this window.
	if trig := observe(t, d, constWindow("a", 1.02)); trig != nil {
		t.Fatalf("re-arming window should not fire, got %v", trig)
	}
	if !d.Armed() {
		t.Fatal("detector should re-arm at the re-arm level")
	}
	// Armed again: the next excursion fires.
	if trig := observe(t, d, constWindow("a", 1.06)); trig == nil {
		t.Fatal("excursion after re-arm should fire")
	} else if trig.Window != 4 {
		t.Errorf("trigger window = %d, want 4", trig.Window)
	}
}

// TestCooldownSuppression: windows inside the cool-down never fire, no
// matter how large the drift, and the cool-down also defers re-arming.
func TestCooldownSuppression(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 2, History: 1}, constWindow("a", 1))
	if trig := observe(t, d, constWindow("a", 1.10)); trig == nil {
		t.Fatal("first excursion should fire")
	}
	// Two cool-down windows: huge drift, no trigger.
	for i := 0; i < 2; i++ {
		if trig := observe(t, d, constWindow("a", 2.0)); trig != nil {
			t.Fatalf("cool-down window %d fired: %v", i, trig)
		}
	}
	// Cool-down over but still disarmed (drift never fell to re-arm).
	if trig := observe(t, d, constWindow("a", 2.0)); trig != nil {
		t.Fatalf("disarmed detector fired after cool-down: %v", trig)
	}
	// One calm window is not enough to re-arm: the rolling forecast still
	// remembers the 2.0 excursion, so the forecast miss stays huge.
	if trig := observe(t, d, constWindow("a", 1.01)); trig != nil {
		t.Fatalf("first calming window fired: %v", trig)
	}
	if d.Armed() {
		t.Fatal("detector re-armed while the forecast still misses")
	}
	// A second calm window converges the forecast; util 1% and forecast 0%
	// are both at or below the default re-arm level (threshold/2): arms.
	if trig := observe(t, d, constWindow("a", 1.01)); trig != nil {
		t.Fatalf("re-arming window fired: %v", trig)
	}
	if !d.Armed() {
		t.Fatal("detector should re-arm once calm")
	}
	trig := observe(t, d, constWindow("a", 1.10))
	if trig == nil {
		t.Fatal("post-cool-down excursion should fire")
	}
	if trig.Window != 6 {
		t.Errorf("trigger window = %d, want 6", trig.Window)
	}
}

// TestRearm: a caller whose trigger reaction failed can undo the disarm
// (and pending cool-down), so persistent drift re-fires immediately.
func TestRearm(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 3, History: 1}, constWindow("a", 1))
	if trig := observe(t, d, constWindow("a", 1.2)); trig == nil {
		t.Fatal("excursion should fire")
	}
	// Without Rearm the next window would be swallowed by the cool-down
	// and the drift level itself would block hysteresis re-arming forever.
	d.Rearm()
	if !d.Armed() {
		t.Fatal("Rearm should arm")
	}
	trig := observe(t, d, constWindow("a", 1.2))
	if trig == nil {
		t.Fatal("persistent drift after Rearm should re-fire")
	}
	if trig.Window != 1 {
		t.Errorf("trigger window = %d, want 1", trig.Window)
	}
}

// TestSetBaselineRebase: after a re-solve the caller rebases the detector
// onto the new plan's assumptions; the same observations stop drifting.
func TestSetBaselineRebase(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05, History: 1}, constWindow("a", 1))
	if trig := observe(t, d, constWindow("a", 1.2)); trig == nil {
		t.Fatal("20% drift should fire")
	}
	// Rebase onto the drifted level (as the watch loop does with the
	// forecast the re-solve consumed) and re-arm.
	if err := d.SetBaseline([]Sample{constWindow("a", 1.2)}); err != nil {
		t.Fatal(err)
	}
	if !d.Armed() {
		t.Fatal("SetBaseline should re-arm")
	}
	// Same level is no longer drift. (History carries over: the forecast
	// from the pre-rebase window predicts 1.2 exactly.)
	if trig := observe(t, d, constWindow("a", 1.2)); trig != nil {
		t.Fatalf("rebased detector fired on the new normal: %v", trig)
	}
	if trig := observe(t, d, constWindow("a", 1.2*1.06)); trig == nil {
		t.Fatal("drift against the new baseline should fire")
	}
	// Rebase must reject workloads vanishing silently only via validation
	// of observations: an old name is now unknown.
	if err := d.SetBaseline([]Sample{constWindow("b", 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Observe([]Sample{constWindow("a", 1)}); err == nil {
		t.Error("workload dropped from baseline still accepted")
	}
}

// TestMinWorkloads: a fleet-wide quorum below MinWorkloads must not fire.
func TestMinWorkloads(t *testing.T) {
	base := []Sample{constWindow("a", 1), constWindow("b", 1), constWindow("c", 1)}
	d := mustDetector(t, Config{Threshold: 0.05, MinWorkloads: 2}, base...)
	if trig := observe(t, d, constWindow("a", 1.2), constWindow("b", 1), constWindow("c", 1)); trig != nil {
		t.Fatalf("single drifted workload fired with MinWorkloads=2: %v", trig)
	}
	trig := observe(t, d, constWindow("a", 1.2), constWindow("b", 1.1), constWindow("c", 1))
	if trig == nil {
		t.Fatal("two drifted workloads should fire")
	}
	if trig.Workloads != 2 {
		t.Errorf("trigger workloads = %d, want 2", trig.Workloads)
	}
	// Causes sorted by drift, descending; both utilization causes present.
	if trig.Causes[0].Workload != "a" || trig.Causes[0].Drift < trig.Causes[len(trig.Causes)-1].Drift {
		t.Errorf("causes not sorted by drift: %v", trig.Causes)
	}
}

// TestZeroBaselineSemantics: dead series stay quiet, coming alive is full
// drift, and the NaN CV(RMSE) of a zero-mean window is never a signal.
func TestZeroBaselineSemantics(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05}, constWindow("idle", 0))
	if trig := observe(t, d, constWindow("idle", 0)); trig != nil {
		t.Fatalf("idle workload staying idle fired: %v", trig)
	}
	trig := observe(t, d, constWindow("idle", 0.5))
	if trig == nil {
		t.Fatal("idle workload coming alive should fire")
	}
	if c := trig.Causes[0]; c.Drift != 1 || c.Kind != UtilizationDelta {
		t.Errorf("cause = %+v, want full utilization drift", c)
	}
}

// TestMultiResourceCauses: drift on RAM and Disk is attributed to the
// right resource.
func TestMultiResourceCauses(t *testing.T) {
	mk := func(cpu, ram, disk float64) Sample {
		return Sample{
			Workload: "a",
			CPU:      series.Constant(t0, time.Minute, 6, cpu),
			RAM:      series.Constant(t0, time.Minute, 6, ram),
			Disk:     series.Constant(t0, time.Minute, 6, disk),
		}
	}
	d := mustDetector(t, Config{Threshold: 0.05}, mk(0.5, 8e9, 1000))
	trig := observe(t, d, mk(0.5, 9e9, 1000))
	if trig == nil {
		t.Fatal("RAM drift should fire")
	}
	if c := trig.Causes[0]; c.Resource != RAM {
		t.Errorf("cause resource = %v, want ram", c.Resource)
	}
	if len(trig.Causes) != 1 {
		t.Errorf("causes = %v, want only the RAM delta", trig.Causes)
	}
}

// TestPartialWindows: workloads missing from a window contribute no signal
// but tracked ones still fire.
func TestPartialWindows(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1), constWindow("b", 1))
	trig := observe(t, d, constWindow("b", 1.3))
	if trig == nil {
		t.Fatal("drifted workload should fire even when others are absent")
	}
	if trig.Causes[0].Workload != "b" {
		t.Errorf("cause = %+v, want workload b", trig.Causes[0])
	}
}

// TestAbsentWindowsAgeForecastHistory: the forecast averages the last
// History windows, not the last History appearances. A window that omits a
// workload ages its history like any other, so with History 1 the window
// after the omission has no forecast to score a, where one counting
// appearances would score it against the flat window before.
func TestAbsentWindowsAgeForecastHistory(t *testing.T) {
	alternating := Sample{Workload: "a", CPU: series.FromFunc(t0, time.Minute, 12, func(_ time.Time, i int) float64 {
		return 1 + 0.1*float64(1-2*(i%2))
	})}
	d := mustDetector(t, Config{Threshold: 0.05, History: 1}, constWindow("a", 1), constWindow("b", 1))
	observe(t, d, constWindow("a", 1), constWindow("b", 1))
	observe(t, d, constWindow("b", 1))
	if trig := observe(t, d, alternating, constWindow("b", 1)); trig != nil {
		t.Fatalf("a scored against the window before its omission: %v", trig)
	}
	// The window after that has a forecast for a again: the alternating one.
	if trig := observe(t, d, constWindow("a", 1), constWindow("b", 1)); trig == nil || trig.Causes[0].Kind != ForecastError {
		t.Fatalf("flat window after the alternating one = %v, want a forecast-error trigger", trig)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{CPU.String(), RAM.String(), Disk.String(),
		UtilizationDelta.String(), ForecastError.String(),
		Resource(99).String(), Kind(99).String()} {
		if s == "" {
			t.Error("empty stringer output")
		}
	}
}
