package drift

import (
	"fmt"
	"testing"
	"time"

	"kairos/internal/series"
)

// TestCheckpointRestoreEquivalence rebuilds a detector from checkpointed
// state (baseline + seeded history + counters) and verifies it behaves
// identically to the live one on the next windows — the invariant the
// control plane's crash recovery rests on.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cfg := Config{Threshold: 0.05, Cooldown: 2, History: 2}
	base := []Sample{constWindow("a", 1), constWindow("b", 1)}

	live := mustDetector(t, cfg, base...)
	// Quiet, quiet, then a trigger and its commit: leaves the live detector
	// with a running cool-down — the most state-laden point to checkpoint.
	windows := [][]Sample{
		{constWindow("a", 1.01), constWindow("b", 1)},
		{constWindow("a", 0.99), constWindow("b", 1)},
		{constWindow("a", 1.30), constWindow("b", 1)},
	}
	var history [][]Sample
	for i, w := range windows {
		trig := observe(t, live, w...)
		if (trig != nil) != (i == 2) {
			t.Fatalf("window %d: trigger = %v", i, trig)
		}
		history = append(history, w)
		if len(history) > cfg.History {
			history = history[len(history)-cfg.History:]
		}
	}
	if err := live.SetBaseline(base); err != nil {
		t.Fatal(err)
	}
	if live.Cooldown() != 2 || live.Window() != 3 {
		t.Fatalf("live state cooldown=%d window=%d, want 2/3", live.Cooldown(), live.Window())
	}

	restored := mustDetector(t, cfg, base...)
	for _, w := range history {
		if err := restored.SeedHistory(w); err != nil {
			t.Fatalf("SeedHistory: %v", err)
		}
	}
	restored.Restore(live.Window(), live.Cooldown())

	// Both detectors must now agree on every subsequent window: the
	// cool-down suppresses the next two, and the drift held at 30% fires
	// on each window after them, since nothing commits.
	for i := 0; i < 4; i++ {
		w := []Sample{constWindow("a", 1.30), constWindow("b", 1)}
		lt := observe(t, live, w...)
		rt := observe(t, restored, w...)
		if (lt == nil) != (rt == nil) || (lt == nil) != (i < 2) {
			t.Fatalf("window %d: live trigger %v, restored trigger %v", i, lt, rt)
		}
		if live.Cooldown() != restored.Cooldown() || live.Window() != restored.Window() {
			t.Fatalf("window %d: state diverged (live %d/%d, restored %d/%d)", i,
				live.Cooldown(), live.Window(), restored.Cooldown(), restored.Window())
		}
	}

	// After a rebase (what a replayed advance does), the forecast history
	// must have survived the checkpoint: a drifted window scores a
	// forecast-error signal only if history is present.
	if err := restored.SeedHistory([]Sample{constWindow("ghost", 1)}); err == nil {
		t.Error("SeedHistory accepted a workload outside the baseline")
	}
}

// TestSeedHistoryRefusesShapeMismatch: a seeded window Observe would
// refuse, for its shape or for a duplicate workload, is refused, with
// Observe's error, and nothing of it is kept — it used to be stored, and
// every later Observe then failed on the forecast's shape, with the bad
// window never evicted.
func TestSeedHistoryRefusesShapeMismatch(t *testing.T) {
	base := []Sample{constWindow("a", 1), constWindow("b", 1)}
	for _, bad := range []Sample{
		{Workload: "b", CPU: series.Constant(t0, time.Minute, 11, 1)},
		{Workload: "b", CPU: series.Constant(t0, 5*time.Minute, 12, 1)},
		constWindow("a", 1),
	} {
		d := mustDetector(t, Config{Threshold: 0.05}, base...)
		window := []Sample{constWindow("a", 1), bad}
		seedErr := d.SeedHistory(window)
		_, obsErr := mustDetector(t, Config{Threshold: 0.05}, base...).Observe(window)
		if seedErr == nil || obsErr == nil || seedErr.Error() != obsErr.Error() {
			t.Fatalf("SeedHistory error %v, Observe error %v: want the same refusal", seedErr, obsErr)
		}
		// Nothing was recorded, not even the good workload's series: the next
		// windows score as on a fresh detector.
		for i := 0; i < 3; i++ {
			if trig := observe(t, d, constWindow("a", 1), constWindow("b", 1)); trig != nil {
				t.Fatalf("window %d after a refused seed fired: %v", i, trig)
			}
		}
		if len(d.kept) != 2 {
			t.Errorf("detector keeps %d windows after three, want 2", len(d.kept))
		}
	}
}

// forecastCause reports whether score finds a forecast-error cause for
// workload a's resource r in window.
func forecastCause(t *testing.T, d *Detector, r Resource, window ...Sample) bool {
	t.Helper()
	at, err := d.index(window)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.score(window, at) {
		if c.Workload == "a" && c.Resource == r && c.Kind == ForecastError {
			return true
		}
	}
	return false
}

// TestRebaseKeepsWindowsOfOtherShapes: a rebase edits no kept window. A
// window whose series has another shape than the new baseline's is an
// empty slot of the forecast, so a rebase to a new shape leaves the next
// window of it no forecast; a window of the new shape fills it.
func TestRebaseKeepsWindowsOfOtherShapes(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1))
	observe(t, d, constWindow("a", 1))
	if err := d.SetBaseline([]Sample{constWindow("a", 1.5)}); err != nil {
		t.Fatal(err)
	}
	if !forecastCause(t, d, CPU, constWindow("a", 1)) {
		t.Fatal("a same-shape rebase lost the forecast")
	}
	longer := Sample{Workload: "a", CPU: series.Constant(t0, time.Minute, 24, 1)}
	if err := d.SetBaseline([]Sample{longer}); err != nil {
		t.Fatal(err)
	}
	if len(d.kept) != 1 {
		t.Fatalf("a rebase left %d kept windows, want 1", len(d.kept))
	}
	if forecastCause(t, d, CPU, longer) {
		t.Fatal("a window of the new shape was scored against one of the old")
	}
	observe(t, d, longer)
	if !forecastCause(t, d, CPU, longer) {
		t.Fatal("a kept window of the new shape made no forecast")
	}
}

// TestRebaseReadsKeptWindows: a resource the baseline starts tracking at a
// rebase is forecast from the kept windows that carried it, as on a
// detector restored by seeding the same windows against the new baseline —
// the equivalence a checkpoint rests on. It used to start empty live and
// full after a restore.
func TestRebaseReadsKeptWindows(t *testing.T) {
	withDisk := func(v float64) Sample {
		s := constWindow("a", 1)
		s.Disk = series.Constant(t0, time.Minute, 12, v)
		return s
	}
	cfg := Config{Threshold: 0.05}
	live := mustDetector(t, cfg, constWindow("a", 1))
	windows := [][]Sample{{withDisk(1)}, {withDisk(1.2)}}
	for _, w := range windows {
		observe(t, live, w...)
	}
	rebase := []Sample{withDisk(1.1)}
	if err := live.SetBaseline(rebase); err != nil {
		t.Fatal(err)
	}
	restored := mustDetector(t, cfg, rebase...)
	for _, w := range windows {
		if err := restored.SeedHistory(w); err != nil {
			t.Fatal(err)
		}
	}
	restored.Restore(live.Window(), live.Cooldown())
	next := withDisk(1.1)
	if !forecastCause(t, live, Disk, next) || !forecastCause(t, restored, Disk, next) {
		t.Fatal("the newly tracked resource has no forecast from the kept windows")
	}
	for i := 0; i < 3; i++ {
		w := []Sample{withDisk(1.1 + 0.1*float64(i))}
		lt, rt := observe(t, live, w...), observe(t, restored, w...)
		if fmt.Sprint(lt) != fmt.Sprint(rt) || (lt == nil) != (i == 0) {
			t.Fatalf("window %d: live %v, restored %v", i, lt, rt)
		}
	}
}

// TestNonPositiveMeanHasNoForecastCause: where the window's mean is zero
// or negative its CV(RMSE) is undefined, and the forecast signal records
// no cause, however far the window is from the forecast.
func TestNonPositiveMeanHasNoForecastCause(t *testing.T) {
	for _, v := range []float64{0, -1} {
		d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 0}, constWindow("a", 1))
		observe(t, d, constWindow("a", 1))
		window := []Sample{constWindow("a", v)}
		at, err := d.index(window)
		if err != nil {
			t.Fatal(err)
		}
		causes := d.score(window, at)
		for _, c := range causes {
			if c.Kind == ForecastError {
				t.Errorf("window mean %v: forecast cause %v", v, c)
			}
		}
		if len(causes) != 1 {
			t.Errorf("window mean %v: causes %v, want the utilization delta alone", v, causes)
		}
	}
}
