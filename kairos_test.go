package kairos

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"kairos/internal/dbms"
	"kairos/internal/disk"
	"kairos/internal/floats"
	"kairos/internal/series"
	"kairos/internal/workload"
)

// testProfile is built once per test binary run.
var testProfile *DiskProfile

func getProfile(t *testing.T) *DiskProfile {
	t.Helper()
	if testing.Short() {
		// The profiling sweep takes several seconds of simulated hardware
		// time; profile-backed tests run in full mode only.
		t.Skip("skipping profiler sweep in -short mode")
	}
	if testProfile == nil {
		pr := QuickProfiler()
		pr.WSPointsMB = []float64{500, 1500}
		pr.RatePoints = []float64{1000, 8000, 20000}
		p, err := ProfileHardware(pr)
		if err != nil {
			t.Fatal(err)
		}
		testProfile = p
	}
	return testProfile
}

func constWL(name string, cpu, ramGB, updates float64) Workload {
	n := 24
	start := time.Unix(0, 0)
	step := 5 * time.Minute
	return Workload{
		Name:       name,
		CPU:        series.Constant(start, step, n, cpu),
		RAMBytes:   series.Constant(start, step, n, ramGB*1e9),
		WSBytes:    series.Constant(start, step, n, ramGB*1e9),
		UpdateRate: series.Constant(start, step, n, updates),
		PinTo:      -1,
	}
}

func TestConsolidateEndToEnd(t *testing.T) {
	dp := getProfile(t)
	wls := []Workload{
		constWL("orders", 0.2, 1.0, 300),
		constWL("wiki", 0.15, 0.8, 200),
		constWL("auth", 0.1, 0.5, 100),
		constWL("logs", 0.25, 1.2, 400),
	}
	machines := make([]Machine, 4)
	for i := range machines {
		machines[i] = Machine{Name: "m", CPUCapacity: 1, RAMBytes: 32e9, DiskWriteBps: 60e6, Headroom: 0.05}
	}
	plan := consolidate(t, wls, machines, dp)
	if !plan.Feasible {
		t.Fatal("plan infeasible")
	}
	if plan.K != 1 {
		t.Errorf("K = %d, want 1 (light workloads)", plan.K)
	}
	out := plan.String()
	for _, name := range []string{"orders", "wiki", "auth", "logs"} {
		if !strings.Contains(out, name) {
			t.Errorf("plan output missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "4 workloads -> 1 machines") {
		t.Errorf("unexpected plan header:\n%s", out)
	}
}

func TestConsolidateWithoutDiskProfile(t *testing.T) {
	wls := []Workload{constWL("a", 0.6, 1, 0), constWL("b", 0.6, 1, 0)}
	machines := []Machine{
		{Name: "m0", CPUCapacity: 1, RAMBytes: 32e9},
		{Name: "m1", CPUCapacity: 1, RAMBytes: 32e9},
	}
	plan := consolidate(t, wls, machines, nil)
	if !plan.Feasible || plan.K != 2 {
		t.Errorf("K = %d feasible=%v, want 2 CPU-bound machines", plan.K, plan.Feasible)
	}
}

func TestConsolidateReplicaNaming(t *testing.T) {
	w := constWL("db", 0.1, 0.5, 0)
	w.Replicas = 2
	machines := []Machine{
		{Name: "m0", CPUCapacity: 1, RAMBytes: 32e9},
		{Name: "m1", CPUCapacity: 1, RAMBytes: 32e9},
	}
	plan := consolidate(t, []Workload{w}, machines, nil)
	if !plan.Feasible || plan.K != 2 {
		t.Fatalf("replicated plan: K=%d feasible=%v", plan.K, plan.Feasible)
	}
	if !strings.Contains(plan.String(), "db/r1") {
		t.Errorf("replica name missing:\n%s", plan.String())
	}
}

func TestMeasureAndConvertProfile(t *testing.T) {
	d, err := disk.New(disk.Server7200SATA())
	if err != nil {
		t.Fatal(err)
	}
	in, err := dbms.NewInstance(dbms.DefaultConfig(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Name: "m", DataPages: 20000, WorkingSetPages: 2000,
		TPS: 50, ReadsPerTxn: 4, UpdatesPerTxn: 2}
	g, err := workload.Provision(in, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	perDB, inst, err := MeasureWorkloads(in, []*workload.Generator{g}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if inst.CPU.Len() != 5 {
		t.Errorf("instance samples = %d, want 5", inst.CPU.Len())
	}
	p, ok := perDB["m"]
	if !ok {
		t.Fatal("missing workload profile")
	}
	w := WorkloadFromProfile(p, 8.0/12.0)
	if w.Name != "m" || w.CPU.Len() != 5 {
		t.Error("conversion lost data")
	}
	if !floats.Same(w.CPU.Values[0], p.CPU.Values[0]*8.0/12.0) {
		t.Error("CPU scaling not applied")
	}
	// Zero scale means identity.
	w2 := WorkloadFromProfile(p, 0)
	if !floats.Same(w2.CPU.Values[0], p.CPU.Values[0]) {
		t.Error("zero cpuScale should mean unscaled")
	}
}

func TestGaugeWorkingSetFacade(t *testing.T) {
	d, _ := disk.New(disk.Server7200SATA())
	cfg := dbms.DefaultConfig()
	cfg.BufferPoolBytes = 64 << 20
	in, _ := dbms.NewInstance(cfg, d, 0)
	spec := workload.Spec{Name: "u", DataPages: 1 << 20, WorkingSetPages: 1000,
		TPS: 100, ReadsPerTxn: 5}
	g, err := workload.Provision(in, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	gc := monitorDefaults()
	res, err := GaugeWorkingSet(in, []*workload.Generator{g}, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("facade gauging failed to detect the working set")
	}
}

// monitorDefaults returns gauge settings fast enough for tests.
func monitorDefaults() GaugeConfig {
	cfg := GaugeConfig{}
	cfg.ProbeTable = "probe"
	cfg.InitialGrowPages = 256
	cfg.MaxStealFraction = 0.95
	cfg.Window = 2 * time.Second
	cfg.ScansPerWindow = 5
	cfg.ReadIncreaseThreshold = 20
	cfg.Tick = 100 * time.Millisecond
	return cfg
}

func TestConsolidatePartitionedFacade(t *testing.T) {
	var wls []Workload
	for i := 0; i < 8; i++ {
		wls = append(wls, constWL(string(rune('a'+i)), 0.45, 1, 0))
	}
	machines := make([]Machine, 8)
	for i := range machines {
		machines[i] = Machine{Name: "m", CPUCapacity: 1, RAMBytes: 32e9}
	}
	ps, err := ConsolidatePartitioned(context.Background(), wls, machines, nil, Grouping{GroupSize: 4, Options: DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Feasible || ps.K != 4 {
		t.Errorf("partitioned: K=%d feasible=%v, want 4 (two per machine)", ps.K, ps.Feasible)
	}
}

func TestConsolidateFleetFacade(t *testing.T) {
	var wls []Workload
	for i := 0; i < 24; i++ {
		wls = append(wls, constWL(fmt.Sprintf("db-%02d", i), 0.22, 1, 0))
	}
	machines := make([]Machine, 24)
	for i := range machines {
		machines[i] = Machine{Name: fmt.Sprintf("m%d", i), CPUCapacity: 1, RAMBytes: 32e9}
	}
	plan := consolidate(t, wls, machines, nil,
		WithShards(3))
	if !plan.Feasible {
		t.Fatal("fleet plan infeasible")
	}
	// 24 workloads at 0.22 CPU ⇒ at least 6 machines; sharding plus the
	// merge pass must land close to that bound.
	if plan.K < 6 || plan.K > 8 {
		t.Errorf("fleet plan uses %d machines, want 6-8", plan.K)
	}
	out := plan.String()
	if !strings.Contains(out, "db-00") {
		t.Errorf("plan output missing workload names:\n%s", out)
	}
}

func TestSLAThroughFacade(t *testing.T) {
	a := constWL("a", 0.45, 1, 0)
	a.SLA = &LatencySLA{MaxSlowdown: 2}
	b := constWL("b", 0.45, 1, 0)
	machines := []Machine{
		{Name: "m0", CPUCapacity: 1, RAMBytes: 32e9},
		{Name: "m1", CPUCapacity: 1, RAMBytes: 32e9},
	}
	plan := consolidate(t, []Workload{a, b}, machines, nil)
	if !plan.Feasible || plan.K != 2 {
		t.Errorf("SLA plan: K=%d feasible=%v, want 2", plan.K, plan.Feasible)
	}
}

// TestPlanStringShowsUnassigned: a unit assigned outside [0,K) is priced as
// a violation by Eval and dropped by Report; the rendered plan must surface
// it instead of letting the workload silently vanish from the table.
func TestPlanStringShowsUnassigned(t *testing.T) {
	p := &Plan{
		Solution: &Solution{
			Assign: []int{0, 7},
			Units:  []UnitRef{{Workload: 0}, {Workload: 1}},
			K:      2,
		},
		Names: []string{"alpha", "beta"},
	}
	out := p.String()
	if !strings.Contains(out, "UNASSIGNED") || !strings.Contains(out, "beta") {
		t.Errorf("plan output hides the out-of-range workload:\n%s", out)
	}
	if !strings.Contains(out, "alpha") {
		t.Errorf("plan output missing the placed workload:\n%s", out)
	}
}
