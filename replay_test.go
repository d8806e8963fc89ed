package kairos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kairos/internal/series"
)

// These tests pin the session-level recovery contract the durable control
// plane (internal/server + internal/journal) is built on: a crashed
// process replays its journaled windows detect-only and re-commits each
// journaled advance, and the result must be indistinguishable — plan,
// incumbent, detector state — from the live session that wrote the
// journal.

func TestFleetReplayMatchesLive(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	quiet := scaleWorkloads(wls, 1.004)
	drifted := scaleWorkloads(wls, 1.12)
	stream := [][]Workload{quiet, scaleWorkloads(wls, 0.997), drifted, quiet}

	// Live session, driven the way the server drives it: between Resolve
	// and Advance it captures what the server would journal — the new
	// incumbent, before it is published.
	live := watchSession(t, inc, wls, machines)
	var journaled []*Incumbent
	var fired []bool
	for _, w := range stream {
		triggered, err := live.ObserveDetectOnly(w)
		if err != nil {
			t.Fatal(err)
		}
		fired = append(fired, triggered)
		if !triggered {
			continue
		}
		ev, err := live.Resolve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		journaled = append(journaled, ev.Plan.Incumbent())
		if live.Plan() != nil || !reflect.DeepEqual(live.Incumbent(), inc) {
			t.Fatal("Resolve published its plan before Advance")
		}
		if err := live.Advance(ev); err != nil {
			t.Fatal(err)
		}
		if live.Plan() != ev.Plan {
			t.Fatal("Advance did not publish the resolved plan")
		}
	}
	if !reflect.DeepEqual(fired, []bool{false, false, true, false}) {
		t.Fatalf("live trigger pattern %v, want only the drifted window firing", fired)
	}
	if len(journaled) != 1 {
		t.Fatalf("%d advances journaled, want 1", len(journaled))
	}

	// Replay session: adopt the registration-time incumbent, reconsume the
	// stream detect-only, re-commit the journaled advance at its trigger.
	replay := watchSession(t, inc, wls, machines)
	if _, err := replay.AdoptIncumbent(inc); err != nil {
		t.Fatal(err)
	}
	adv := 0
	for i, w := range stream {
		triggered, err := replay.ObserveDetectOnly(w)
		if err != nil {
			t.Fatal(err)
		}
		if triggered != fired[i] {
			t.Fatalf("replayed window %d: triggered=%v, live fired=%v", i, triggered, fired[i])
		}
		if triggered {
			if _, err := replay.ReplayAdvance(journaled[adv]); err != nil {
				t.Fatal(err)
			}
			adv++
		}
	}

	// Recovered plan equals the last published plan.
	lp, rp := live.Plan(), replay.Plan()
	if lp.K != rp.K || !reflect.DeepEqual(lp.Assign, rp.Assign) {
		t.Fatalf("replayed plan (K=%d) differs from live plan (K=%d)", rp.K, lp.K)
	}
	if !reflect.DeepEqual(live.Incumbent(), replay.Incumbent()) {
		t.Fatal("replayed incumbent differs from live incumbent")
	}
	// Detector state is bit-identical, so the streams stay in lockstep:
	// the same fresh windows fire (or hold) on both sessions.
	lcp, rcp := live.Checkpoint(), replay.Checkpoint()
	if lcp.Windows != rcp.Windows || lcp.Armed != rcp.Armed || lcp.Cooldown != rcp.Cooldown {
		t.Fatalf("detector state diverged: live %d/%v/%d, replay %d/%v/%d",
			lcp.Windows, lcp.Armed, lcp.Cooldown, rcp.Windows, rcp.Armed, rcp.Cooldown)
	}
	for i := 0; i < 2; i++ {
		lev, err := live.Observe(context.Background(), quiet)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := replay.Observe(context.Background(), quiet)
		if err != nil {
			t.Fatal(err)
		}
		if (lev == nil) != (rev == nil) {
			t.Fatalf("post-replay window %d diverged: live=%v, replay=%v", i, lev, rev)
		}
		if lev != nil && (lev.Window != rev.Window || lev.Plan.K != rev.Plan.K ||
			!reflect.DeepEqual(lev.Plan.Assign, rev.Plan.Assign)) {
			t.Fatalf("post-replay window %d: sessions fired different events", i)
		}
	}
}

func TestFleetCheckpointRestoreResumes(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	quiet1 := scaleWorkloads(wls, 1.004)
	quiet2 := scaleWorkloads(wls, 0.997)
	drifted := scaleWorkloads(wls, 1.12)

	live := watchSession(t, inc, wls, machines)
	for _, w := range [][]Workload{quiet1, quiet2} {
		if ev, err := live.Observe(context.Background(), w); err != nil || ev != nil {
			t.Fatalf("quiet window: ev=%v err=%v", ev, err)
		}
	}
	cp := live.Checkpoint()
	if cp.Windows != 2 || !cp.Armed || cp.Incumbent == nil || len(cp.History) == 0 {
		t.Fatalf("checkpoint %+v incomplete after two windows", cp)
	}

	restored := watchSession(t, inc, wls, machines)
	if _, err := restored.AdoptIncumbent(cp.Incumbent); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreWatch(cp); err != nil {
		t.Fatal(err)
	}
	// The next drifted window must fire on both, producing the same plan:
	// the restored session forecasts from the same history.
	lev, err := live.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := restored.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if lev == nil || rev == nil {
		t.Fatalf("drifted window after restore: live=%v restored=%v, want both firing", lev, rev)
	}
	if lev.Window != rev.Window {
		t.Fatalf("restored trigger at window %d, live at %d", rev.Window, lev.Window)
	}
	if lev.Plan.K != rev.Plan.K || !reflect.DeepEqual(lev.Plan.Assign, rev.Plan.Assign) {
		t.Fatal("restored session re-solved to a different plan than the live one")
	}
	// Past the trigger the checkpoint's baseline is the forecast the plan was
	// solved on, and a restore publishes the plan priced there.
	cp = live.Checkpoint()
	again := watchSession(t, inc, wls, machines)
	if _, err := again.AdoptIncumbent(cp.Incumbent); err != nil {
		t.Fatal(err)
	}
	if err := again.RestoreWatch(cp); err != nil {
		t.Fatal(err)
	}
	got, want := again.Plan(), live.Plan()
	if got.K != want.K || got.Feasible != want.Feasible || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("restored plan K=%d feasible=%v objective %v, live K=%d feasible=%v objective %v",
			got.K, got.Feasible, got.Objective, want.K, want.Feasible, want.Objective)
	}
}

func TestCheckpointWithoutWindows(t *testing.T) {
	wls, machines := watchFleet(4, 12)
	_, inc := solveIncumbent(t, wls, machines)
	f := watchSession(t, inc, wls, machines)
	cp := f.Checkpoint()
	if cp.Windows != 0 || !cp.Armed || cp.Cooldown != 0 {
		t.Fatalf("fresh checkpoint %+v, want zero counters and armed", cp)
	}
	if !reflect.DeepEqual(cp.Incumbent, inc) {
		t.Fatal("fresh checkpoint lost the seeded incumbent")
	}
	// And a fleet with no plan at all checkpoints a nil incumbent, which
	// RestoreWatch refuses.
	empty, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	if cp := empty.Checkpoint(); cp.Incumbent != nil {
		t.Fatal("plan-less fleet checkpointed an incumbent")
	}
	if err := empty.RestoreWatch(&FleetCheckpoint{}); err == nil {
		t.Fatal("RestoreWatch accepted a checkpoint with no incumbent")
	}
}

// TestResolveWithoutAdvance: a resolved event that is never committed (the
// journal refused the write) must leave no trace — nothing publishes, the
// incumbent does not move — and the same drift fires again on the next
// window. Advance refuses an event the session has moved past.
func TestResolveWithoutAdvance(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	drifted := scaleWorkloads(wls, 1.12)

	f := watchSession(t, inc, wls, machines)
	if _, err := f.Resolve(context.Background()); err == nil {
		t.Fatal("Resolve with no trigger to solve for succeeded")
	}
	if _, err := f.Observe(context.Background(), scaleWorkloads(wls, 1.004)); err != nil {
		t.Fatal(err)
	}
	if triggered, err := f.ObserveDetectOnly(drifted); err != nil || !triggered {
		t.Fatalf("drifted window: triggered=%v err=%v", triggered, err)
	}
	stale, err := f.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Incumbent(), inc) {
		t.Fatal("uncommitted re-solve moved the incumbent")
	}
	if f.Plan() != nil {
		t.Fatal("uncommitted re-solve published")
	}
	// The uncommitted trigger changed nothing: persistent drift fires
	// again on the very next window, which makes the event stale.
	if triggered, err := f.ObserveDetectOnly(drifted); err != nil || !triggered {
		t.Fatalf("window after the uncommitted trigger: triggered=%v err=%v", triggered, err)
	}
	if err := f.Advance(stale); err == nil {
		t.Fatal("Advance committed an event from before a later window")
	}
	ev, err := f.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("drift did not re-fire with nothing committed")
	}
	if f.Plan() != ev.Plan {
		t.Fatal("re-fired drift did not publish its plan")
	}
	// An event Observe already committed, or an older one, is stale too.
	for _, old := range []*ReconsolidationEvent{ev, stale, nil} {
		if err := f.Advance(old); err == nil {
			t.Fatal("Advance committed a stale event")
		}
	}
	if f.Plan() != ev.Plan || f.Window() != 4 {
		t.Fatal("refused Advance still changed the session")
	}
}

// TestResolveErrorTyped: solver failures surface as *ResolveError (the
// control plane's backoff signal) while remaining errors.Is-transparent.
func TestResolveErrorTyped(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	f := watchSession(t, inc, wls, machines)
	if _, err := f.Observe(context.Background(), scaleWorkloads(wls, 1.004)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.Observe(ctx, scaleWorkloads(wls, 1.12))
	if err == nil {
		t.Fatal("cancelled triggered re-solve succeeded")
	}
	var re *ResolveError
	if !errors.As(err, &re) {
		t.Fatalf("re-solve failure %v is not a *ResolveError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ResolveError hides the cancellation: %v", err)
	}
	if !strings.Contains(re.Error(), "re-solve failed") {
		t.Fatalf("ResolveError message %q lost its context", re.Error())
	}
}

// TestCooldownStartsOnlyAtCommit: a trigger changes the detector's state
// only through its commit. One that nothing commits leaves the cool-down
// at 0 and the next drifted window fires; Observe's commit, Advance and
// ReplayAdvance each start the configured cool-down; a failed re-solve
// starts none.
func TestCooldownStartsOnlyAtCommit(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	drifted := scaleWorkloads(wls, 1.12)
	const cooldown = 2
	ctx := context.Background()
	session := func() *Fleet {
		t.Helper()
		f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines}, WithIncumbent(inc),
			WithResolveOptions(watchResolveOptions()), WithDrift(DriftConfig{Threshold: 0.04, Cooldown: cooldown}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Observe(ctx, scaleWorkloads(wls, 1.004)); err != nil {
			t.Fatal(err)
		}
		return f
	}
	fire := func(name string, f *Fleet) {
		t.Helper()
		if triggered, err := f.ObserveDetectOnly(drifted); err != nil || !triggered {
			t.Fatalf("%s: drifted window triggered=%v err=%v", name, triggered, err)
		}
	}
	checkCooldown := func(name string, f *Fleet, want int) {
		t.Helper()
		if cp := f.Checkpoint(); cp.Cooldown != want || !cp.Armed {
			t.Errorf("%s: checkpoint cool-down %d armed %v, want %d and true", name, cp.Cooldown, cp.Armed, want)
		}
	}

	f := session()
	fire("uncommitted", f)
	checkCooldown("uncommitted trigger", f, 0)
	fire("window after the uncommitted trigger", f)

	f = session()
	fire("advance", f)
	ev, err := f.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(ev); err != nil {
		t.Fatal(err)
	}
	checkCooldown("Advance", f, cooldown)

	f = session()
	fire("replayed advance", f)
	if _, err := f.ReplayAdvance(ev.Plan.Incumbent()); err != nil {
		t.Fatal(err)
	}
	checkCooldown("ReplayAdvance", f, cooldown)

	f = session()
	if ev, err := f.Observe(ctx, drifted); err != nil || ev == nil {
		t.Fatalf("Observe on the drifted window: event %v err %v", ev, err)
	}
	checkCooldown("Observe", f, cooldown)

	f = session()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Observe(cancelled, drifted); err == nil {
		t.Fatal("cancelled re-solve succeeded")
	}
	checkCooldown("failed re-solve", f, 0)
}

// TestUntriggeredCheckpointHasNoBaseline: until a trigger commits, the
// spec workloads are the baseline and a checkpoint does not carry a copy
// of them; the restore is the same — the plan priced on the spec, and the
// next drifted window fires the live session's trigger and plan.
func TestUntriggeredCheckpointHasNoBaseline(t *testing.T) {
	wls, machines := watchFleet(4, 24)
	_, inc := solveIncumbent(t, wls, machines)
	live := watchSession(t, inc, wls, machines)
	if _, err := live.Observe(context.Background(), scaleWorkloads(wls, 1.004)); err != nil {
		t.Fatal(err)
	}
	cp := live.Checkpoint()
	if cp.Baseline != nil || cp.Windows != 1 {
		t.Fatalf("untriggered checkpoint carries a %d-workload baseline after %d windows, want none after 1", len(cp.Baseline), cp.Windows)
	}
	restored := watchSession(t, inc, wls, machines)
	if err := restored.RestoreWatch(cp); err != nil {
		t.Fatal(err)
	}
	drifted := scaleWorkloads(wls, 1.12)
	want, got := outcome(t, live, drifted), outcome(t, restored, drifted)
	if got != want || got == "quiet" {
		t.Fatalf("restored session: %s, live: %s, want the same trigger", got, want)
	}
	if cp := restored.Checkpoint(); len(cp.Baseline) != len(wls) {
		t.Fatalf("checkpoint after a trigger carries %d baseline workloads, want %d", len(cp.Baseline), len(wls))
	}
}

// TestPartialTriggerKeepsEveryWorkload: a drifted window that omits a
// registered workload re-solves every workload of the baseline — the
// omitted one on its baseline series — and the fleet goes on accepting
// windows that name it, live and after a restore.
func TestPartialTriggerKeepsEveryWorkload(t *testing.T) {
	wls, machines := watchFleet(4, 24)
	_, inc := solveIncumbent(t, wls, machines)
	f := watchSession(t, inc, wls, machines)
	ev, err := f.Observe(context.Background(), scaleWorkloads(wls[:3], 1.12))
	if err != nil || ev == nil {
		t.Fatalf("partial drifted window: ev=%v err=%v, want a trigger", ev, err)
	}
	if len(ev.Plan.Assign) != len(wls) {
		t.Fatalf("partial trigger re-solved %d units (%v), want all %d", len(ev.Plan.Assign), ev.Plan.Names, len(wls))
	}
	cp := f.Checkpoint()
	if cp.Baseline[3].CPU != wls[3].CPU {
		t.Fatal("the omitted workload's forecast is not its baseline series")
	}
	restored := watchSession(t, inc, wls, machines)
	if err := restored.RestoreWatch(cp); err != nil {
		t.Fatalf("restore after a partial trigger: %v", err)
	}
	for _, s := range []*Fleet{f, restored} {
		if _, err := s.Observe(context.Background(), scaleWorkloads(wls, 1.12)); err != nil {
			t.Fatalf("full window after a partial trigger: %v", err)
		}
		if n := len(s.Plan().Assign); n != len(wls) {
			t.Fatalf("plan has %d units, want %d", n, len(wls))
		}
	}
}

// TestTriggerKeepsRegisteredReplicas: placement metadata comes from the
// registration, not from the window — a window that does not repeat a
// workload's replica count re-solves with every replica.
func TestTriggerKeepsRegisteredReplicas(t *testing.T) {
	wls, machines := watchFleet(6, 24)
	wls[0].Replicas = 2
	_, inc := solveIncumbent(t, wls, machines)
	f := watchSession(t, inc, wls, machines)
	window := scaleWorkloads(wls, 1.12)
	for i := range window {
		window[i].Replicas = 0
	}
	ev, err := f.Observe(context.Background(), window)
	if err != nil || ev == nil {
		t.Fatalf("drifted window: ev=%v err=%v, want a trigger", ev, err)
	}
	if len(ev.Plan.Assign) != 7 {
		t.Fatalf("re-solve placed %d units (%v), want 7: the registered replica dropped", len(ev.Plan.Assign), ev.Plan.Names)
	}
}

// outcome observes w and renders what the window did: quiet, or the
// trigger's evidence (MaxDrift to the bit) and the plan it re-solved to.
func outcome(t *testing.T, f *Fleet, w []Workload) string {
	t.Helper()
	ev, err := f.Observe(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		return "quiet"
	}
	return fmt.Sprintf("%v (max %#x) -> K=%d %v objective %#x", ev.Trigger, math.Float64bits(ev.Trigger.MaxDrift),
		ev.Plan.K, ev.Plan.Assign, math.Float64bits(ev.Plan.Objective))
}

// TestCheckpointAtEveryWindowResumesLive pins replay = live for the
// checkpoint: a stream observed whole, and the same stream checkpointed
// after any window, restored into a new session and observed to the end,
// report the same outcome for every window — whether it fired, the
// trigger's evidence, K, the assignment and the objective's bits. Each
// window scales and phase-shifts every workload and, at random, omits the
// last one, so restores land after partial windows and partial triggers.
// The seeds run twice, the second time with a disk_write_bps series the
// registration lacks on every window: the detector starts tracking it
// when a trigger commits a forecast that carries it, and must then read
// the same windows live as after a restore.
func TestCheckpointAtEveryWindowResumesLive(t *testing.T) {
	wls, machines := watchFleet(6, 24)
	_, inc := solveIncumbent(t, wls, machines)
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for run := 0; run < 2*seeds; run++ {
		seed, disk := run%seeds, run >= seeds
		rng := rand.New(rand.NewSource(int64(seed)))
		stream := make([][]Workload, 10)
		for i := range stream {
			scale, shift := 0.95+0.2*rng.Float64(), rng.Intn(24)
			w := scaleWorkloads(wls, scale)
			for j := range w {
				v := w[j].CPU.Values
				w[j].CPU = series.New(w[j].CPU.Start, w[j].CPU.Step, append(append([]float64(nil), v[shift:]...), v[:shift]...))
			}
			if rng.Intn(2) == 0 {
				w = w[:len(w)-1]
			}
			if disk {
				for j := range w {
					w[j].DiskWriteBps = w[j].CPU.Scale(1e7 * (0.8 + 0.4*rng.Float64()))
				}
			}
			stream[i] = w
		}
		live := watchSession(t, inc, wls, machines)
		want := make([]string, len(stream))
		cps := make([]*FleetCheckpoint, len(stream))
		for i, w := range stream {
			cps[i] = live.Checkpoint()
			want[i] = outcome(t, live, w)
		}
		for split := 1; split < len(stream); split++ {
			restored := watchSession(t, inc, wls, machines)
			if err := restored.RestoreWatch(cps[split]); err != nil {
				t.Fatalf("seed %d (disk %v): restoring the checkpoint after window %d: %v", seed, disk, split-1, err)
			}
			for i := split; i < len(stream); i++ {
				if got := outcome(t, restored, stream[i]); got != want[i] {
					t.Fatalf("seed %d (disk %v), restored after window %d: window %d %s, live %s", seed, disk, split-1, i, got, want[i])
				}
			}
		}
	}
}
