package kairos

import (
	"context"
	"math"
	"sync"
	"testing"

	"kairos/internal/core"
)

// TestNewFleetValidation: structural spec errors surface at construction;
// what only monitoring needs — a plan to watch, named workloads, a valid
// drift config — surfaces at the first Observe, which consumes nothing.
func TestNewFleetValidation(t *testing.T) {
	wls, machines := watchFleet(4, 12)
	if _, err := NewFleet(FleetSpec{Machines: machines}); err == nil {
		t.Error("empty workload list accepted")
	}
	if _, err := NewFleet(FleetSpec{Workloads: wls}); err == nil {
		t.Error("empty machine list accepted")
	}
	bad := append([]Machine(nil), machines...)
	bad[0].CPUCapacity = 0
	if _, err := NewFleet(FleetSpec{Workloads: wls, Machines: bad}); err == nil {
		t.Error("zero-capacity machine accepted")
	}

	_, inc := solveIncumbent(t, wls, machines)
	unnamed := append([]Workload(nil), wls...)
	unnamed[0].Name = ""
	for _, tc := range []struct {
		name string
		wls  []Workload
		opts []FleetOption
	}{
		{"nil incumbent", wls, nil},
		{"empty incumbent", wls, []FleetOption{WithIncumbent(&Incumbent{})}},
		{"unnamed workload", unnamed, []FleetOption{WithIncumbent(inc)}},
		{"invalid drift config", wls, []FleetOption{WithIncumbent(inc), WithDrift(DriftConfig{Threshold: -1})}},
	} {
		f, err := NewFleet(FleetSpec{Workloads: tc.wls, Machines: machines}, tc.opts...)
		if err != nil {
			t.Errorf("%s: NewFleet: %v", tc.name, err)
			continue
		}
		if _, err := f.Observe(context.Background(), wls); err == nil {
			t.Errorf("%s: first Observe accepted", tc.name)
		}
		if f.Window() != 0 {
			t.Errorf("%s: refused Observe consumed a window", tc.name)
		}
	}
}

// TestFleetConsolidateMatchesCoreSolve: the session's cold solve is the
// same plan core.Solve computes — the handle adds state, not behaviour.
func TestFleetConsolidateMatchesCoreSolve(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	opt := DefaultOptions()
	opt.SkipDirect = true

	f, err := NewFleet(FleetSpec{Name: "test", Workloads: wls, Machines: machines},
		WithSolveOptions(opt))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "test" {
		t.Errorf("Name() = %q", f.Name())
	}
	if f.Plan() != nil || f.Incumbent() != nil {
		t.Error("fresh session already has a plan")
	}
	plan, err := f.Consolidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(context.Background(), &Problem{Workloads: wls, Machines: machines}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != sol.K || math.Abs(plan.Objective-sol.Objective) > 1e-12 {
		t.Errorf("session plan (K=%d obj=%v) != core.Solve (K=%d obj=%v)",
			plan.K, plan.Objective, sol.K, sol.Objective)
	}
	if f.Plan() != plan {
		t.Error("Plan() does not return the consolidation result")
	}
	if f.Incumbent() == nil {
		t.Error("Consolidate did not set the incumbent")
	}
}

// TestFleetObserveLifecycle: quiet windows hold, a drifted window
// triggers, and the served plan and window count advance.
func TestFleetObserveLifecycle(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	opt := DefaultOptions()
	opt.SkipDirect = true
	resolve := DefaultResolveOptions()
	resolve.SkipDirect = true

	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines},
		WithSolveOptions(opt), WithResolveOptions(resolve))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Observe(context.Background(), wls); err == nil {
		t.Fatal("Observe before Consolidate accepted")
	}
	initial, err := f.Consolidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ev, err := f.Observe(context.Background(), scaleWorkloads(wls, 1.004))
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("quiet window %d fired: %v", i, ev)
		}
	}
	if f.Window() != 2 || f.Plan() != initial {
		t.Errorf("after quiet windows: %d windows, plan moved %v", f.Window(), f.Plan() != initial)
	}
	ev, err := f.Observe(context.Background(), scaleWorkloads(wls, 1.12))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("12% drift did not trigger")
	}
	if f.Plan() != ev.Plan {
		t.Error("served plan did not advance to the re-solve")
	}
	if f.Plan() == initial {
		t.Error("served plan still the initial one after a trigger")
	}
	if f.Window() != 3 || ev.Window != 2 {
		t.Errorf("after the trigger: %d windows, event at window %d, want 3 and 2", f.Window(), ev.Window)
	}
}

// TestFleetWithIncumbentObserve: a session seeded from a saved plan
// watches immediately, without a cold solve — `kairos watch` relies on
// this.
func TestFleetWithIncumbentObserve(t *testing.T) {
	wls, machines := watchFleet(6, 24)
	_, inc := solveIncumbent(t, wls, machines)
	resolve := DefaultResolveOptions()
	resolve.SkipDirect = true

	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines},
		WithIncumbent(inc), WithResolveOptions(resolve))
	if err != nil {
		t.Fatal(err)
	}
	if f.Plan() != nil {
		t.Error("seeded session claims a computed plan")
	}
	if f.Incumbent() != inc {
		t.Error("Incumbent() != seed before any observation")
	}
	ev, err := f.Observe(context.Background(), scaleWorkloads(wls, 1.15))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("seeded session did not trigger on 15% drift")
	}
	if f.Incumbent() == inc {
		t.Error("incumbent did not advance after the triggered re-solve")
	}
}

// TestFleetWithIncumbentWarmConsolidate: Consolidate on a seeded session
// re-solves warm — the plan core.Resolve computes from the seed.
func TestFleetWithIncumbentWarmConsolidate(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)
	drifted := scaleWorkloads(wls, 1.08)
	resolve := DefaultResolveOptions()
	resolve.SkipDirect = true

	f, err := NewFleet(FleetSpec{Workloads: drifted, Machines: machines},
		WithIncumbent(inc), WithResolveOptions(resolve))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := f.Consolidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Resolve(context.Background(), &Problem{Workloads: drifted, Machines: machines}, inc, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if warm.K != want.K || math.Abs(warm.Objective-want.Objective) > 1e-12 ||
		warm.Migrated != want.Migrated {
		t.Errorf("warm session solve (K=%d obj=%v mig=%d) != core.Resolve (K=%d obj=%v mig=%d)",
			warm.K, warm.Objective, warm.Migrated, want.K, want.Objective, want.Migrated)
	}
}

// TestFleetShardedConsolidate: WithShards routes cold solves through the
// sharded fleet engine.
func TestFleetShardedConsolidate(t *testing.T) {
	wls, machines := watchFleet(12, 12)
	opt := DefaultOptions()
	opt.SkipDirect = true

	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines},
		WithSolveOptions(opt), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Consolidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolveSharded(context.Background(), &Problem{Workloads: wls, Machines: machines},
		core.ShardOptions{Shards: 3, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != want.K || math.Abs(plan.Objective-want.Objective) > 1e-12 {
		t.Errorf("sharded session solve (K=%d obj=%v) != core.SolveSharded (K=%d obj=%v)",
			plan.K, plan.Objective, want.K, want.Objective)
	}
}

// TestFleetConcurrentObserve hammers the session handle itself: Observe
// from many collectors racing Plan/Events/Drift readers.
func TestFleetConcurrentObserve(t *testing.T) {
	wls, machines := watchFleet(6, 12)
	opt := DefaultOptions()
	opt.SkipDirect = true
	resolve := DefaultResolveOptions()
	resolve.SkipDirect = true
	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines},
		WithSolveOptions(opt), WithResolveOptions(resolve))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Consolidate(context.Background()); err != nil {
		t.Fatal(err)
	}

	const collectors = 6
	const windowsEach = 4
	var wg sync.WaitGroup
	errs := make(chan error, collectors*windowsEach)
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < windowsEach; i++ {
				scale := 1.002
				if (c+i)%4 == 0 {
					scale = 1.12
				}
				if _, err := f.Observe(context.Background(), scaleWorkloads(wls, scale)); err != nil {
					errs <- err
					return
				}
				_ = f.Plan()
				_ = f.Window()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := f.Window(); got != collectors*windowsEach {
		t.Errorf("Window() = %d, want %d", got, collectors*windowsEach)
	}
	if f.Incumbent() == nil {
		t.Error("incumbent lost during concurrent observation")
	}
}
