package kairos

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"kairos/internal/core"
	"kairos/internal/fleet"
	"kairos/internal/floats"
	"kairos/internal/predict"
	"kairos/internal/series"
)

// watchFleet builds a small synthetic fleet for watch-loop tests.
func watchFleet(n, T int) ([]Workload, []Machine) {
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	wls := make([]Workload, n)
	for i := range wls {
		base := 0.10 + 0.02*float64(i%5)
		cpu := series.FromFunc(start, step, T, func(_ time.Time, t int) float64 {
			return base + 0.03*math.Sin(2*math.Pi*float64(t)/float64(T)+float64(i))
		})
		wls[i] = Workload{
			Name:     "db" + string(rune('a'+i)),
			CPU:      cpu,
			RAMBytes: series.Constant(start, step, T, 4e9+1e9*float64(i%3)),
			PinTo:    -1,
		}
	}
	machines := make([]Machine, n)
	for j := range machines {
		machines[j] = fleet.TargetMachine("t"+string(rune('0'+j)), 50e6, 0.05)
	}
	return wls, machines
}

// scaleWorkloads returns a copy with every series scaled by f.
func scaleWorkloads(wls []Workload, f float64) []Workload {
	out := make([]Workload, len(wls))
	for i, w := range wls {
		out[i] = w
		out[i].CPU = w.CPU.Scale(f).Clamp(0, 1)
		out[i].RAMBytes = w.RAMBytes.Scale(f)
	}
	return out
}

// consolidate opens a session over the fleet and computes its plan: a
// cold solve, or a warm one when opts seed an incumbent.
func consolidate(t testing.TB, wls []Workload, machines []Machine, dp *DiskProfile, opts ...FleetOption) *Plan {
	t.Helper()
	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines, Disk: dp}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.Consolidate(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func solveIncumbent(t *testing.T, wls []Workload, machines []Machine) (*Plan, *Incumbent) {
	t.Helper()
	opt := DefaultOptions()
	opt.SkipDirect = true
	plan := consolidate(t, wls, machines, nil, WithSolveOptions(opt))
	if !plan.Feasible {
		t.Fatal("baseline plan infeasible")
	}
	return plan, plan.Incumbent()
}

// watchResolveOptions is the warm re-solve budget the watch tests use.
func watchResolveOptions() SolveOptions {
	opt := DefaultResolveOptions()
	opt.SkipDirect = true
	return opt
}

// watchSession opens a session seeded with inc that watches wls for drift.
func watchSession(t testing.TB, inc *Incumbent, wls []Workload, machines []Machine) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetSpec{Workloads: wls, Machines: machines},
		WithIncumbent(inc), WithResolveOptions(watchResolveOptions()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWatchTriggersOnlyOnDrift is the core loop contract on a synthetic
// fleet: quiet windows never fire, the drifted window fires immediately,
// and the triggered plan is exactly what the fixed-cadence warm re-solve
// would produce on the same forecast inputs — never worse.
func TestWatchTriggersOnlyOnDrift(t *testing.T) {
	wls, machines := watchFleet(8, 24)
	_, inc := solveIncumbent(t, wls, machines)

	quiet1 := scaleWorkloads(wls, 1.004)
	quiet2 := scaleWorkloads(wls, 0.997)
	drifted := scaleWorkloads(wls, 1.12)

	ar := watchSession(t, inc, wls, machines)
	for i, w := range [][]Workload{quiet1, quiet2, quiet1} {
		ev, err := ar.Observe(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("quiet window %d fired: %v", i, ev)
		}
	}
	ev, err := ar.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("12% drift did not fire within its own window")
	}
	if ev.Window != 3 {
		t.Errorf("event window = %d, want 3", ev.Window)
	}
	if ev.Trigger == nil || len(ev.Trigger.Causes) == 0 {
		t.Fatal("event carries no trigger evidence")
	}
	if !ev.Plan.Feasible {
		t.Error("triggered re-solve infeasible")
	}
	if s := ev.String(); !strings.Contains(s, "window 3") || !strings.Contains(s, "migrated") {
		t.Errorf("event string %q missing window/migration info", s)
	}
	// The loop must hand the re-solve the forecast series, not the stale
	// profile: a fixed-cadence warm re-solve on the same forecast inputs
	// (mean of the two retained windows) must produce the identical plan.
	forecast := make([]Workload, len(wls))
	for i, w := range drifted {
		forecast[i] = w
		cpu, err := predict.MeanOfWindows([]*series.Series{quiet1[i].CPU, drifted[i].CPU})
		if err != nil {
			t.Fatal(err)
		}
		ram, err := predict.MeanOfWindows([]*series.Series{quiet1[i].RAMBytes, drifted[i].RAMBytes})
		if err != nil {
			t.Fatal(err)
		}
		forecast[i].CPU, forecast[i].RAMBytes = cpu, ram
	}
	cadence := consolidate(t, forecast, machines, nil, WithIncumbent(inc), WithResolveOptions(watchResolveOptions()))
	if ev.Plan.K != cadence.K || math.Abs(ev.Plan.Objective-cadence.Objective) > 1e-12 {
		t.Errorf("triggered plan (K=%d obj=%v) differs from fixed-cadence warm re-solve on the same inputs (K=%d obj=%v)",
			ev.Plan.K, ev.Plan.Objective, cadence.K, cadence.Objective)
	}
	if !floats.Same(ev.ObjectiveDelta, ev.StaleObjective-ev.Plan.Objective) {
		t.Errorf("ObjectiveDelta = %v, want stale-new = %v",
			ev.ObjectiveDelta, ev.StaleObjective-ev.Plan.Objective)
	}
	checkStalePrice(t, ev, machines, inc)
	// The re-solve's plan becomes the incumbent for the next trigger.
	if ar.Incumbent() != ev.Plan.Incumbent() {
		t.Error("incumbent not advanced to the re-solved plan")
	}
	// Post-trigger convergence: the detector was rebased onto the forecast
	// (halfway between quiet and drifted), so a fleet that stays at the
	// drifted level still deviates ~5% from the new plan's assumptions.
	// The loop is allowed one convergence re-solve (after the cool-down)
	// and must then settle — no further events once the baseline matches
	// the observed level.
	var extra int
	for i := 0; i < 4; i++ {
		ev, err := ar.Observe(context.Background(), drifted)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			extra++
		}
	}
	if extra > 1 {
		t.Errorf("loop thrashed: %d re-solves while holding a steady level, want ≤1 convergence step", extra)
	}
	ev2, err := ar.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if ev2 != nil {
		t.Errorf("settled fleet re-fired: %v", ev2)
	}
	if ar.Window() != 9 {
		t.Errorf("Window() = %d, want 9", ar.Window())
	}
}

// TestWatchRejectedWindowIsNotConsumed: a malformed observation window
// errors without entering the forecast history or the detector, so the
// loop recovers cleanly on the next valid window.
func TestWatchRejectedWindowIsNotConsumed(t *testing.T) {
	wls, machines := watchFleet(6, 24)
	_, inc := solveIncumbent(t, wls, machines)
	ar := watchSession(t, inc, wls, machines)
	if _, err := ar.Observe(context.Background(), scaleWorkloads(wls, 1.001)); err != nil {
		t.Fatal(err)
	}
	// A window whose WSBytes disagrees with its CPU shape — a series the
	// detector does not track — must be rejected up front, not recorded.
	bad := scaleWorkloads(wls, 1.001)
	bad[0].WSBytes = series.Constant(time.Unix(0, 0), time.Minute, 3, 1e9)
	if _, err := ar.Observe(context.Background(), bad); err == nil {
		t.Fatal("internally inconsistent window accepted")
	}
	if ar.Window() != 1 {
		t.Fatalf("rejected window consumed: Window() = %d, want 1", ar.Window())
	}
	// The next valid drifted window triggers and re-solves — the bad
	// window left no residue in the forecast history.
	ev, err := ar.Observe(context.Background(), scaleWorkloads(wls, 1.15))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("drift after a rejected window should still trigger")
	}
	if !ev.Plan.Feasible {
		t.Error("recovered re-solve infeasible")
	}
}

// TestDiskSignalIsUpdateRate: the detector's disk resource is the update
// rate (rows/s) alone. A registration that carries only the measured write
// rate (bytes/s) and windows that carry only the update rate, or the other
// way round, compare no two units: with CPU and RAM unchanged nothing
// fires. The last row is the control: an update rate that doubles does.
func TestDiskSignalIsUpdateRate(t *testing.T) {
	const T = 24
	bps := series.Constant(time.Unix(0, 0), 5*time.Minute, T, 2e6)
	rows := series.Constant(time.Unix(0, 0), 5*time.Minute, T, 500)
	withDisk := func(wls []Workload, write, update *series.Series) []Workload {
		out := append([]Workload(nil), wls...)
		for i := range out {
			out[i].DiskWriteBps, out[i].UpdateRate = write, update
		}
		return out
	}
	wls, machines := watchFleet(6, T)
	for _, c := range []struct {
		name         string
		spec, window [2]*series.Series // DiskWriteBps, UpdateRate
		fires        bool
	}{
		{"write rate registered, update rate observed", [2]*series.Series{bps, nil}, [2]*series.Series{nil, rows}, false},
		{"update rate registered, write rate observed", [2]*series.Series{nil, rows}, [2]*series.Series{bps, nil}, false},
		{"update rate doubles", [2]*series.Series{nil, rows}, [2]*series.Series{nil, rows.Scale(2)}, true},
	} {
		spec := withDisk(wls, c.spec[0], c.spec[1])
		_, inc := solveIncumbent(t, spec, machines)
		ev, err := watchSession(t, inc, spec, machines).Observe(context.Background(), withDisk(wls, c.window[0], c.window[1]))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if fired := ev != nil; fired != c.fires {
			t.Errorf("%s: fired %v (%v), want %v", c.name, fired, ev, c.fires)
		}
	}
}

// TestWatchDriftedFleet197 is the acceptance scenario on the full
// 197-server ALL fleet: no trigger across undrifted observation windows,
// a trigger within one window of the 5%-drifted trace, and a triggered
// plan no worse than the PR 3 fixed-cadence warm re-solve on the same
// inputs.
func TestWatchDriftedFleet197(t *testing.T) {
	if testing.Short() {
		t.Skip("197-server fleet solve in -short mode")
	}
	f := fleet.All()
	wls := f.Workloads(0.7)
	machines := make([]Machine, len(f.Servers))
	for j := range machines {
		machines[j] = fleet.TargetMachine(fmt.Sprintf("t%d", j), 50e6, 0.05)
	}
	opt := DefaultOptions()
	opt.SkipDirect = true
	inc := consolidate(t, wls, machines, nil, WithSolveOptions(opt)).Incumbent()
	ar := watchSession(t, inc, wls, machines)
	// Undrifted trace: repeated observation of the solved-against series
	// (plus sub-threshold measurement noise) must never trigger.
	for i, frac := range []float64{0, 0.005, 0.003} {
		win := wls
		if frac > 0 {
			win = driftFleet(wls, frac, int64(100+i))
		}
		ev, err := ar.Observe(context.Background(), win)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			t.Fatalf("undrifted window %d triggered: %v", i, ev)
		}
	}
	// 5%-drifted trace: must trigger within one evaluation window.
	drifted := driftFleet(wls, 0.05, 7)
	ev, err := ar.Observe(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("5% drift did not trigger within one window")
	}
	if !ev.Plan.Feasible {
		t.Error("triggered re-solve infeasible on the drifted fleet")
	}
	// Never worse than the fixed-cadence warm re-solve on the same
	// (forecast) inputs.
	forecast := make([]Workload, len(wls))
	hist := [][]Workload{wls, driftFleet(wls, 0.003, 102), drifted}
	hist = hist[len(hist)-2:]
	for i := range wls {
		forecast[i] = drifted[i]
		var cpuW, ramW, wsW, rateW []*series.Series
		for _, h := range hist {
			cpuW = append(cpuW, h[i].CPU)
			ramW = append(ramW, h[i].RAMBytes)
			if h[i].WSBytes != nil {
				wsW = append(wsW, h[i].WSBytes)
			}
			if h[i].UpdateRate != nil {
				rateW = append(rateW, h[i].UpdateRate)
			}
		}
		if forecast[i].CPU, err = predict.MeanOfWindows(cpuW); err != nil {
			t.Fatal(err)
		}
		if forecast[i].RAMBytes, err = predict.MeanOfWindows(ramW); err != nil {
			t.Fatal(err)
		}
		if len(wsW) > 0 {
			if forecast[i].WSBytes, err = predict.MeanOfWindows(wsW); err != nil {
				t.Fatal(err)
			}
		}
		if len(rateW) > 0 {
			if forecast[i].UpdateRate, err = predict.MeanOfWindows(rateW); err != nil {
				t.Fatal(err)
			}
		}
	}
	cadence := consolidate(t, forecast, machines, nil, WithIncumbent(inc), WithResolveOptions(watchResolveOptions()))
	if ev.Plan.K > cadence.K ||
		(ev.Plan.K == cadence.K && ev.Plan.Objective > cadence.Objective+1e-12) {
		t.Errorf("triggered plan (K=%d obj=%v) worse than fixed-cadence warm re-solve (K=%d obj=%v)",
			ev.Plan.K, ev.Plan.Objective, cadence.K, cadence.Objective)
	}
	// The stale incumbent priced on the forecast is what the re-solve had
	// to beat; sanity-check the delta is reported coherently.
	if !floats.Same(ev.ObjectiveDelta, ev.StaleObjective-ev.Plan.Objective) {
		t.Errorf("delta %v != stale %v - new %v", ev.ObjectiveDelta, ev.StaleObjective, ev.Plan.Objective)
	}
	checkStalePrice(t, ev, machines, inc)
}

// checkStalePrice holds an event's stale price — which the re-solve reports —
// to PriceIncumbent's pricing of the incumbent on the event's forecast.
func checkStalePrice(t *testing.T, ev *ReconsolidationEvent, machines []Machine, inc *Incumbent) {
	t.Helper()
	obj, feas, _, err := core.PriceIncumbent(&Problem{Workloads: ev.forecast, Machines: machines}, inc)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Same(ev.StaleObjective, obj) || ev.StaleFeasible != feas {
		t.Errorf("stale price (%v, %v), PriceIncumbent (%v, %v)", ev.StaleObjective, ev.StaleFeasible, obj, feas)
	}
}

// forecastByScan is forecastWorkloads as it was written first: for every
// baseline workload and every series, each window is scanned for the
// workload's name, and the first entry of that name counts. It is the
// reference TestForecastIndexMatchesScan holds the indexed forecast to.
func forecastByScan(baseline []Workload, history [][]Workload) ([]Workload, error) {
	out := make([]Workload, len(baseline))
	for i, b := range baseline {
		fc := b
		for _, get := range []func(*Workload) **series.Series{
			func(w *Workload) **series.Series { return &w.CPU },
			func(w *Workload) **series.Series { return &w.RAMBytes },
			func(w *Workload) **series.Series { return &w.WSBytes },
			func(w *Workload) **series.Series { return &w.UpdateRate },
			func(w *Workload) **series.Series { return &w.DiskWriteBps },
		} {
			var windows []*series.Series
			for _, win := range history {
				for j := range win {
					if win[j].Name != b.Name {
						continue
					}
					if s := *get(&win[j]); s != nil {
						windows = append(windows, s)
					}
					break
				}
			}
			if len(windows) == 0 {
				continue
			}
			mean, err := predict.MeanOfWindows(windows)
			if err != nil {
				return nil, fmt.Errorf("workload %q: %w", b.Name, err)
			}
			*get(&fc) = mean
		}
		out[i] = fc
	}
	return out, nil
}

// TestForecastIndexMatchesScan: the forecast that indexes each window by
// name once equals, bit for bit, the one that scans every window per
// workload and series — on windows that list the workloads in other orders,
// each omit one, carry a series only some windows do, name a workload
// twice (the first entry counts) or one the baseline does not know.
func TestForecastIndexMatchesScan(t *testing.T) {
	const T = 48
	baseline, _ := watchFleet(6, T)
	baseline[2].WSBytes = baseline[2].RAMBytes.Scale(0.5)
	var history [][]Workload
	for w := 0; w < 5; w++ {
		drifted := scaleWorkloads(baseline, 1+0.03*float64(w))
		var win []Workload
		for k := range drifted {
			i := (k*5 + w) % len(drifted) // another order per window
			if i == w%len(drifted) {
				continue // each window omits one workload
			}
			win = append(win, drifted[i])
		}
		if w%2 == 0 {
			win[0].WSBytes = win[0].CPU.Scale(3)
		}
		if w == 3 {
			dup := win[1]
			dup.CPU = dup.CPU.Scale(7)
			win = append(win, dup, Workload{Name: "unknown", CPU: dup.CPU, RAMBytes: dup.RAMBytes})
		}
		history = append(history, win)
	}
	got, err := forecastWorkloads(baseline, history)
	if err != nil {
		t.Fatal(err)
	}
	want, err := forecastByScan(baseline, history)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g, w := got[i], want[i]
		for k, pair := range [][2]*series.Series{{g.CPU, w.CPU}, {g.RAMBytes, w.RAMBytes}, {g.WSBytes, w.WSBytes}, {g.UpdateRate, w.UpdateRate}, {g.DiskWriteBps, w.DiskWriteBps}} {
			a, b := pair[0], pair[1]
			if (a == nil) != (b == nil) {
				t.Fatalf("workload %s series %d: indexed %v, scanned %v", w.Name, k, a, b)
			}
			if a == nil {
				continue
			}
			if a.Start != b.Start || a.Step != b.Step || len(a.Values) != len(b.Values) {
				t.Fatalf("workload %s series %d: shapes differ", w.Name, k)
			}
			for x := range a.Values {
				if !floats.Same(a.Values[x], b.Values[x]) {
					t.Fatalf("workload %s series %d step %d: indexed %v, scanned %v", w.Name, k, x, a.Values[x], b.Values[x])
				}
			}
		}
	}
}
