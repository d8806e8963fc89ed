package drift

import (
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
	// Quiet, quiet, then a trigger: leaves the live detector disarmed with
	// a running cool-down — the most state-laden point to checkpoint.
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
	if live.Armed() || live.Cooldown() != 2 || live.Window() != 3 {
		t.Fatalf("live state armed=%v cooldown=%d window=%d, want disarmed/2/3",
			live.Armed(), live.Cooldown(), live.Window())
	}

	restored := mustDetector(t, cfg, base...)
	for _, w := range history {
		if err := restored.SeedHistory(w); err != nil {
			t.Fatalf("SeedHistory: %v", err)
		}
	}
	restored.Restore(live.Window(), live.Armed(), live.Cooldown())

	// Both detectors must now agree on every subsequent window: the
	// cool-down suppresses the next two, and the third (drift held at 30%)
	// still cannot fire because the hysteresis never saw drift fall to the
	// re-arm level.
	for i := 0; i < 4; i++ {
		w := []Sample{constWindow("a", 1.30), constWindow("b", 1)}
		lt := observe(t, live, w...)
		rt := observe(t, restored, w...)
		if (lt == nil) != (rt == nil) {
			t.Fatalf("window %d: live trigger %v, restored trigger %v", i, lt, rt)
		}
		if live.Armed() != restored.Armed() || live.Cooldown() != restored.Cooldown() || live.Window() != restored.Window() {
			t.Fatalf("window %d: state diverged (live %v/%d/%d, restored %v/%d/%d)", i,
				live.Armed(), live.Cooldown(), live.Window(),
				restored.Armed(), restored.Cooldown(), restored.Window())
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
// refuse for its shape is refused, with Observe's error, and nothing of it
// is kept — it used to be stored, and every later Observe then failed on
// the forecast's shape, with the bad window never evicted.
func TestSeedHistoryRefusesShapeMismatch(t *testing.T) {
	base := []Sample{constWindow("a", 1), constWindow("b", 1)}
	for _, bad := range []Sample{
		{Workload: "b", CPU: series.Constant(t0, time.Minute, 11, 1)},
		{Workload: "b", CPU: series.Constant(t0, 5*time.Minute, 12, 1)},
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
		if got := d.state["a"].history[CPU]; len(got) != 2 {
			t.Errorf("history after three windows holds %d, want 2", len(got))
		}
	}
}

// TestSetBaselineShapeChangeDropsHistory: a rebase that changes a
// resource's shape drops the windows no later window can be scored
// against; one that keeps it keeps them.
func TestSetBaselineShapeChangeDropsHistory(t *testing.T) {
	d := mustDetector(t, Config{Threshold: 0.05}, constWindow("a", 1))
	observe(t, d, constWindow("a", 1))
	if err := d.SetBaseline([]Sample{constWindow("a", 1.5)}); err != nil {
		t.Fatal(err)
	}
	if len(d.state["a"].history[CPU]) != 1 {
		t.Fatal("a same-shape rebase dropped the history")
	}
	longer := Sample{Workload: "a", CPU: series.Constant(t0, time.Minute, 24, 1)}
	if err := d.SetBaseline([]Sample{longer}); err != nil {
		t.Fatal(err)
	}
	if len(d.state["a"].history[CPU]) != 0 {
		t.Fatal("a rebase to a new shape kept windows of the old one")
	}
	if _, err := d.Observe([]Sample{longer}); err != nil {
		t.Fatalf("a window of the new shape: %v", err)
	}
}

// TestNonPositiveMeanHasNoForecastCause: where the window's mean is zero
// or negative its CV(RMSE) is undefined, and the forecast signal records
// no cause, however far the window is from the forecast.
func TestNonPositiveMeanHasNoForecastCause(t *testing.T) {
	for _, v := range []float64{0, -1} {
		d := mustDetector(t, Config{Threshold: 0.05, Cooldown: 0}, constWindow("a", 1))
		observe(t, d, constWindow("a", 1))
		causes, err := d.score([]Sample{constWindow("a", v)})
		if err != nil {
			t.Fatal(err)
		}
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
