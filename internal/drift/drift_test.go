package drift

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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
		{"infinite threshold", Config{Threshold: math.Inf(1)}, base},
		{"negative cooldown", Config{Threshold: 0.05, Cooldown: -1}, base},
		{"negative history", Config{Threshold: 0.05, History: -1}, base},
		{"negative min-workloads", Config{Threshold: 0.05, MinWorkloads: -1}, base},
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
	// A refused rebase leaves the baseline as it was, including for a
	// workload it named first.
	if err := d.SetBaseline([]Sample{constWindow("new", 1), {Workload: "a"}}); err == nil {
		t.Fatal("a baseline sample with no series accepted")
	}
	if _, err := d.Observe([]Sample{constWindow("new", 1)}); err == nil {
		t.Error("a workload only a refused baseline named accepted")
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

// TestHysteresisRearm: a trigger leaves no disarm behind, so there is no
// hysteresis to wait out. Drift hovering above the threshold re-fires on
// every uncommitted window, windows under it stay quiet, and the next
// excursion fires without a calm window in between.
func TestHysteresisRearm(t *testing.T) {
	// History 1 keeps the rolling forecast one window behind, so the
	// forecast-error signal of each step below is easy to compute by hand.
	d := mustDetector(t, Config{Threshold: 0.05, History: 1}, constWindow("a", 1))
	for i, tc := range []struct {
		level float64
		fire  bool
	}{
		{1.06, true},  // util 6%
		{1.07, true},  // util 7%: still above the threshold, fires again
		{1.03, false}, // util 3%, forecast |1.03-1.07|/1.03 ≈ 3.9%
		{1.02, false}, // util 2%, forecast ≈ 1%
		{1.06, true},  // util 6%
	} {
		trig := observe(t, d, constWindow("a", tc.level))
		if (trig != nil) != tc.fire {
			t.Fatalf("window %d at %v: trigger %v, want fire=%v", i, tc.level, trig, tc.fire)
		}
		if trig != nil && trig.Window != i {
			t.Errorf("trigger window = %d, want %d", trig.Window, i)
		}
	}
}

// TestRearm: a caller whose trigger reaction failed has nothing to undo.
// NewDetector's first baseline starts no cool-down and firing starts none,
// so persistent drift re-fires on every uncommitted window even with a
// cool-down configured; SetBaseline, the commit's rebase, starts it.
func TestRearm(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 3, History: 1}, constWindow("a", 1))
	if d.Cooldown() != 0 {
		t.Fatalf("new detector cool-down %d, want 0", d.Cooldown())
	}
	for i := 0; i < 3; i++ {
		trig := observe(t, d, constWindow("a", 1.2))
		if trig == nil || trig.Window != i {
			t.Fatalf("uncommitted window %d: trigger %v, want one at window %d", i, trig, i)
		}
		if d.Cooldown() != 0 {
			t.Fatalf("window %d: firing left cool-down %d, want 0", i, d.Cooldown())
		}
	}
	if err := d.SetBaseline([]Sample{constWindow("a", 1)}); err != nil {
		t.Fatal(err)
	}
	if d.Cooldown() != 3 {
		t.Fatalf("SetBaseline left cool-down %d, want 3", d.Cooldown())
	}
}

// TestCooldownSuppression: the windows inside the cool-down a commit
// starts never fire, no matter how large the drift, and the first window
// after it fires on the drift that persists.
func TestCooldownSuppression(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 2, History: 1}, constWindow("a", 1))
	if trig := observe(t, d, constWindow("a", 1.10)); trig == nil {
		t.Fatal("first excursion should fire")
	}
	// The commit: rebase (here onto the same assumptions) starts the
	// cool-down.
	if err := d.SetBaseline([]Sample{constWindow("a", 1)}); err != nil {
		t.Fatal(err)
	}
	// Two cool-down windows: huge drift, no trigger.
	for i := 0; i < 2; i++ {
		if trig := observe(t, d, constWindow("a", 2.0)); trig != nil {
			t.Fatalf("cool-down window %d fired: %v", i, trig)
		}
	}
	trig := observe(t, d, constWindow("a", 2.0))
	if trig == nil {
		t.Fatal("drift after the cool-down should fire")
	}
	if trig.Window != 3 {
		t.Errorf("trigger window = %d, want 3", trig.Window)
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
	// forecast the re-solve consumed).
	if err := d.SetBaseline([]Sample{constWindow("a", 1.2)}); err != nil {
		t.Fatal(err)
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

// TestScoreSameAtAnyProcs: the detector scores a window's workloads one
// item each of a cpu.Do, yet every window of a stream gives the same
// trigger, causes in the same order with the same bits, at GOMAXPROCS 1, 2
// and 8 — 64 workloads on three resources, some absent from a window,
// some with a zero mean.
func TestScoreSameAtAnyProcs(t *testing.T) {
	const n = 64
	window := func(w int) []Sample {
		var out []Sample
		for i := 0; i < n; i++ {
			if w >= 0 && (i+w)%9 == 0 {
				continue // absent from this window
			}
			f := func(r int) *series.Series {
				return series.FromFunc(t0, time.Minute, 12, func(_ time.Time, k int) float64 {
					if i%13 == 0 && r == 2 {
						return 0
					}
					return (1 + float64(i%5*(w+1))/10) * (1 + float64((i*7+k*3+r)%11)/20)
				})
			}
			out = append(out, Sample{Workload: fmt.Sprintf("w%02d", i), CPU: f(0), RAM: f(1), Disk: f(2)})
		}
		return out
	}
	run := func() []*Trigger {
		d := mustDetector(t, Config{Threshold: 0.05, History: 3}, window(-1)...)
		var trigs []*Trigger
		for w := 0; w < 6; w++ {
			trigs = append(trigs, observe(t, d, window(w)...))
		}
		return trigs
	}
	var want []*Trigger
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := run()
		runtime.GOMAXPROCS(prev)
		if want == nil {
			want = got
			if want[0] == nil || len(want[0].Causes) < n/2 {
				t.Fatalf("the stream's first window fired %v: too few causes to tell an order", want[0])
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: triggers differ from GOMAXPROCS=1's", procs)
		}
	}
}
