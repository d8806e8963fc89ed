// Benchmarks for event-driven re-consolidation on the drifted 197-server
// ALL fleet: trigger quality (precision/recall of the drift detector over
// quiet and drifted observation windows) and end-to-end cost (objective
// evaluations spent by the watch loop versus re-solving on a fixed
// cadence). `make bench-drift` runs these and prints the metrics beside
// each result.
package kairos

import (
	"context"
	"testing"

	"kairos/internal/core"
	"kairos/internal/fleet"
)

// BenchmarkDriftWatch plays a monitoring stream at the watch loop: five
// quiet windows (≤0.4% measurement noise around the solved-against
// profiles) followed by three windows at a persistent 5% drift. Tracked
// metrics:
//
//	trigger-precision  triggers landing on drifted windows / all triggers
//	trigger-recall     1 if the drift episode triggered within one window
//	watch-fevals       objective evaluations spent by the watch loop's
//	                   triggered re-solves across all 8 windows
//	cadence-fevals     evaluations a PR 3 fixed-cadence warm re-solve
//	                   (one per window, same options) spends on the same
//	                   stream — the cost the trigger avoids
//	migrated-frac      units migrated by the first triggered re-solve
//	objective-recovered stale-minus-resolved objective on the trigger
func BenchmarkDriftWatch(b *testing.B) {
	base := fleetProblem(fleet.All(), nil)
	opt := core.DefaultSolveOptions()
	opt.SkipDirect = true
	prev, err := core.Solve(context.Background(), base, opt)
	if err != nil {
		b.Fatal(err)
	}
	inc := core.IncumbentFromSolution(base, prev)

	const quietWindows = 5
	windows := make([][]Workload, 0, quietWindows+3)
	for i := 0; i < quietWindows; i++ {
		windows = append(windows, driftFleet(base.Workloads, 0.004, int64(100+i)))
	}
	drifted := driftFleet(base.Workloads, 0.05, 7)
	for i := 0; i < 3; i++ {
		windows = append(windows, drifted)
	}

	resolve := DefaultResolveOptions()
	resolve.SkipDirect = true
	spec := FleetSpec{Workloads: base.Workloads, Machines: base.Machines}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar, err := NewFleet(spec, WithIncumbent(inc), WithDrift(DriftConfig{Threshold: 0.04, Cooldown: 1}), WithResolveOptions(resolve))
		if err != nil {
			b.Fatal(err)
		}
		var triggers, onDrifted, watchFevals int
		var firstEvent *ReconsolidationEvent
		recall := 0.0
		for w, win := range windows {
			ev, err := ar.Observe(context.Background(), win)
			if err != nil {
				b.Fatal(err)
			}
			if ev == nil {
				continue
			}
			triggers++
			watchFevals += ev.Plan.Fevals
			if w >= quietWindows {
				onDrifted++
			}
			if w == quietWindows { // fired within one window of the episode
				recall = 1
			}
			if firstEvent == nil {
				firstEvent = ev
			}
		}
		precision := 1.0
		if triggers > 0 {
			precision = float64(onDrifted) / float64(triggers)
		}
		b.ReportMetric(precision, "trigger-precision")
		b.ReportMetric(recall, "trigger-recall")
		b.ReportMetric(float64(watchFevals), "watch-fevals")
		if firstEvent != nil {
			b.ReportMetric(float64(firstEvent.Plan.Migrated)/float64(len(firstEvent.Plan.Assign)), "migrated-frac")
			b.ReportMetric(firstEvent.ObjectiveDelta, "objective-recovered")
		}

		// The fixed-cadence baseline: a warm re-solve on every window,
		// whatever the drift — PR 3's loop. Same resolve options, so the
		// difference is purely what the trigger avoids.
		cadenceFevals := 0
		cadenceInc := inc
		for _, win := range windows {
			p := &core.Problem{Workloads: win, Machines: base.Machines}
			sol, err := core.Resolve(context.Background(), p, cadenceInc, resolve)
			if err != nil {
				b.Fatal(err)
			}
			cadenceFevals += sol.Fevals
			cadenceInc = core.IncumbentFromSolution(p, sol)
		}
		b.ReportMetric(float64(cadenceFevals), "cadence-fevals")
	}
}
