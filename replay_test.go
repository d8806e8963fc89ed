package kairos

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
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
// incumbent does not move — and once the detector is re-armed the same
// drift fires again. Advance refuses an event the session has moved past.
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
	f.RearmDetector()
	if !reflect.DeepEqual(f.Incumbent(), inc) {
		t.Fatal("uncommitted re-solve moved the incumbent")
	}
	if f.Plan() != nil {
		t.Fatal("uncommitted re-solve published")
	}
	if err := f.Advance(stale); err == nil {
		t.Fatal("Advance committed an event from before the re-arm")
	}
	if _, err := f.Resolve(context.Background()); err == nil {
		t.Fatal("Resolve after the re-arm settled the trigger succeeded")
	}
	// Persistent drift fires again on the very next window.
	ev, err := f.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("drift did not re-fire after the re-arm")
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
	if f.Plan() != ev.Plan || f.Window() != 3 {
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
