package model

import (
	"bytes"
	"math"
	"testing"
	"time"

	"kairos/internal/dbms"
	"kairos/internal/disk"
	"kairos/internal/floats"
	"kairos/internal/polyfit"
	"kairos/internal/series"
)

// quickProfiler returns a small, fast sweep for tests.
func quickProfiler() Profiler {
	pr := DefaultProfiler()
	pr.WSPointsMB = []float64{200, 500, 1000}
	pr.RatePoints = []float64{500, 2000, 8000, 20000, 40000}
	pr.DBMS.BufferPoolBytes = 2 << 30
	pr.Settle = 40 * time.Second
	pr.Measure = 30 * time.Second
	return pr
}

// sharedProfile is built once; the profiler is deterministic.
var sharedProfile *DiskProfile

func getProfile(t *testing.T) *DiskProfile {
	t.Helper()
	if testing.Short() {
		// The simulated hardware sweep dominates this package's runtime
		// (~18s); profile-backed assertions run in full mode only.
		t.Skip("skipping profiler sweep in -short mode")
	}
	if sharedProfile == nil {
		p, err := quickProfiler().Run()
		if err != nil {
			t.Fatalf("profiler: %v", err)
		}
		sharedProfile = p
	}
	return sharedProfile
}

func TestProfilerValidation(t *testing.T) {
	pr := quickProfiler()
	pr.WSPointsMB = nil
	if _, err := pr.Run(); err == nil {
		t.Error("empty grid accepted")
	}
	pr = quickProfiler()
	pr.Measure = 0
	if _, err := pr.Run(); err == nil {
		t.Error("zero measure window accepted")
	}
	pr = quickProfiler()
	pr.WSPointsMB = []float64{100000} // exceeds pool
	if _, err := pr.Run(); err == nil {
		t.Error("working set above pool accepted")
	}
}

func TestProfileShape(t *testing.T) {
	p := getProfile(t)
	if len(p.Points) != 15 {
		t.Fatalf("expected 15 sweep points, got %d", len(p.Points))
	}
	// Figure 4, property 1: at fixed working set, writes grow sub-linearly
	// with the (achieved) update rate but do grow.
	lowRate := p.PredictWriteMBps(500e6, 1000)
	highRate := p.PredictWriteMBps(500e6, 8000)
	if highRate <= lowRate {
		t.Errorf("writes should grow with rate: %v (1K) vs %v (8K)", lowRate, highRate)
	}
	if highRate >= 8*lowRate {
		t.Errorf("writes should grow sub-linearly: 8x rate gave %vx writes", highRate/lowRate)
	}
	// Figure 4, property 2: at fixed rate, a larger working set needs more
	// write throughput.
	smallWS := p.PredictWriteMBps(200e6, 4000)
	largeWS := p.PredictWriteMBps(1000e6, 4000)
	if largeWS <= smallWS {
		t.Errorf("writes should grow with working set: %v (200MB) vs %v (1GB)", smallWS, largeWS)
	}
}

func TestProfileSaturationDetected(t *testing.T) {
	p := getProfile(t)
	// 20K rows/sec against one 7200 RPM disk must saturate.
	saturated := 0
	for _, pt := range p.Points {
		if pt.Saturated {
			saturated++
		}
		if pt.AchievedRows > pt.DemandRows*1.05 {
			t.Errorf("achieved %v exceeds demand %v", pt.AchievedRows, pt.DemandRows)
		}
	}
	if saturated == 0 {
		t.Error("no sweep point saturated the disk; grid too easy")
	}
	if !p.HasEnvelope {
		t.Error("envelope missing despite saturation")
	}
}

func TestEnvelopeDecreasesWithWS(t *testing.T) {
	// Figure 4's dashed line: larger working sets yield lower max update
	// throughput (more distinct pages per update to write back).
	p := getProfile(t)
	small := p.MaxRowsPerSec(200e6)
	large := p.MaxRowsPerSec(1000e6)
	if small <= 0 || large <= 0 {
		t.Fatalf("envelope not positive: %v / %v", small, large)
	}
	if large >= small {
		t.Errorf("envelope should fall with working set: %v (200MB) vs %v (1GB)", small, large)
	}
}

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	p := getProfile(t)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.ConfigName != p.ConfigName || len(q.Points) != len(p.Points) {
		t.Error("round trip lost data")
	}
	for _, ws := range []float64{200e6, 600e6, 900e6} {
		for _, r := range []float64{1000, 5000} {
			a, b := p.PredictWriteMBps(ws, r), q.PredictWriteMBps(ws, r)
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("prediction changed after round trip: %v vs %v", a, b)
			}
		}
	}
	if _, err := LoadProfile(bytes.NewBufferString("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
}

func TestPredictionNonNegative(t *testing.T) {
	p := getProfile(t)
	for _, ws := range []float64{0, 1e6, 5e9} {
		for _, r := range []float64{0, 100, 1e6} {
			if v := p.PredictWriteMBps(ws, r); v < 0 {
				t.Errorf("negative prediction %v at ws=%v rate=%v", v, ws, r)
			}
		}
	}
	if p.MaxRowsPerSec(1e12) < 0 {
		t.Error("negative envelope")
	}
}

// --- combined estimator ---

func constSeries(v float64, n int) *series.Series {
	return series.Constant(time.Unix(0, 0), time.Minute, n, v)
}

func TestCombinedCPUSubtractsOverhead(t *testing.T) {
	e := NewEstimator(nil)
	e.CPUOverheadPerInstance = 0.02
	cpus := []*series.Series{constSeries(0.10, 4), constSeries(0.20, 4), constSeries(0.30, 4)}
	got, err := e.CombinedCPU(cpus)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.10 + 0.20 + 0.30 - 2*0.02
	if math.Abs(got.Values[0]-want) > 1e-12 {
		t.Errorf("combined CPU = %v, want %v", got.Values[0], want)
	}
	base, err := e.BaselineCPU(cpus)
	if err != nil {
		t.Fatal(err)
	}
	if base.Values[0] <= got.Values[0] {
		t.Error("baseline should exceed the corrected estimate")
	}
	if _, err := e.CombinedCPU(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCombinedCPUClamps(t *testing.T) {
	e := NewEstimator(nil)
	got, err := e.CombinedCPU([]*series.Series{constSeries(0.9, 2), constSeries(0.8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Values[0] != 1 {
		t.Errorf("combined CPU should clamp at 1, got %v", got.Values[0])
	}
}

func TestCombinedRAMScaling(t *testing.T) {
	e := NewEstimator(nil)
	e.RAMScaling = 0.7
	got, err := e.CombinedRAM([]*series.Series{constSeries(1e9, 3), constSeries(2e9, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Values[0]-2.1e9) > 1 {
		t.Errorf("scaled RAM = %v, want 2.1e9", got.Values[0])
	}
	e.RAMScaling = 0 // treated as 1
	got, _ = e.CombinedRAM([]*series.Series{constSeries(1e9, 3)})
	if got.Values[0] != 1e9 {
		t.Errorf("zero scaling should mean no scaling, got %v", got.Values[0])
	}
	if _, err := e.CombinedRAM(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCombinedDiskUsesProfile(t *testing.T) {
	p := getProfile(t)
	e := NewEstimator(p)
	ws := []*series.Series{constSeries(200e6, 2), constSeries(300e6, 2)}
	rates := []*series.Series{constSeries(1000, 2), constSeries(2000, 2)}
	got, err := e.CombinedDisk(ws, rates)
	if err != nil {
		t.Fatal(err)
	}
	want := p.PredictWriteMBps(500e6, 3000) * 1e6
	if math.Abs(got.Values[0]-want) > 1e-6 {
		t.Errorf("combined disk = %v, want %v", got.Values[0], want)
	}
	// Error paths.
	if _, err := e.CombinedDisk(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := e.CombinedDisk(ws, rates[:1]); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := (&Estimator{}).CombinedDisk(ws, rates); err == nil {
		t.Error("nil profile accepted")
	}
}

// TestCombinedPropertyMatchesSingle verifies the paper's core modeling
// property on the simulator itself: N databases with aggregate working set
// X and aggregate rate Y produce (approximately) the same disk write
// throughput as one database with working set X at rate Y.
func TestCombinedPropertyMatchesSingle(t *testing.T) {
	run := func(nDBs int, totalWSPages int64, totalRate float64) float64 {
		d, err := disk.New(disk.Server7200SATA())
		if err != nil {
			t.Fatal(err)
		}
		cfg := dbms.DefaultConfig()
		cfg.BufferPoolBytes = 2 << 30
		in, err := dbms.NewInstance(cfg, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			db *dbms.Database
			ws int64
		}
		dbs := make([]pair, nDBs)
		for i := range dbs {
			db, err := in.CreateDatabase(string(rune('a'+i)), totalWSPages/int64(nDBs))
			if err != nil {
				t.Fatal(err)
			}
			in.Preload(db, totalWSPages/int64(nDBs))
			dbs[i] = pair{db, totalWSPages / int64(nDBs)}
		}
		dt := 100 * time.Millisecond
		perDBUpdates := totalRate / float64(nDBs) * dt.Seconds()
		carry := 0.0
		for tick := 0; tick < 600; tick++ {
			reqs := make([]dbms.Request, nDBs)
			carry += perDBUpdates
			n := int(carry)
			carry -= float64(n)
			for i, p := range dbs {
				reqs[i] = dbms.Request{DB: p.db, Updates: n, WorkingSetPages: p.ws}
			}
			in.Tick(dt, reqs)
		}
		st := d.Stats()
		return float64(st.WriteBytes()) / 1e6 / st.ElapsedTime.Seconds()
	}
	single := run(1, 40000, 3000)
	multi := run(4, 40000, 3000)
	if single <= 0 || multi <= 0 {
		t.Fatalf("no writes measured: single=%v multi=%v", single, multi)
	}
	ratio := multi / single
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("aggregation property violated: single=%.2f MB/s multi=%.2f MB/s (ratio %.2f)",
			single, multi, ratio)
	}
}

func TestHybridDisk(t *testing.T) {
	p := getProfile(t)
	e := NewEstimator(p)
	// Two workloads with a time-varying baseline: low in the first half,
	// high in the second.
	n := 10
	ws := []*series.Series{constSeries(300e6, n)}
	rates := []*series.Series{constSeries(2000, n)}
	measured := series.Constant(time.Unix(0, 0), time.Minute, n, 0)
	for t2 := 0; t2 < n; t2++ {
		if t2 < n/2 {
			measured.Values[t2] = 1e6 // quiet
		} else {
			measured.Values[t2] = 50e6 // busy
		}
	}
	hybrid, err := e.HybridDisk(ws, rates, []*series.Series{measured}, 50)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := e.CombinedDisk(ws, rates)
	if err != nil {
		t.Fatal(err)
	}
	// Low-percentile steps use the baseline; high steps use the model.
	for t2 := 0; t2 < n/2; t2++ {
		if !floats.Same(hybrid.Values[t2], measured.Values[t2]) {
			t.Errorf("step %d: hybrid = %v, want baseline %v", t2, hybrid.Values[t2], measured.Values[t2])
		}
	}
	for t2 := n/2 + 1; t2 < n; t2++ {
		if !floats.Same(hybrid.Values[t2], pred.Values[t2]) {
			t.Errorf("step %d: hybrid = %v, want model %v", t2, hybrid.Values[t2], pred.Values[t2])
		}
	}
	// Error paths.
	if _, err := e.HybridDisk(nil, nil, nil, 30); err == nil {
		t.Error("empty inputs accepted")
	}
	short := []*series.Series{constSeries(1e6, n-1)}
	if _, err := e.HybridDisk(ws, rates, short, 30); err == nil {
		t.Error("length mismatch accepted")
	}
}

// syntheticEnvelopeProfile hand-writes a profile whose envelope goes
// negative (and so clamps to 0) for large working sets, with a zero write
// fit so envelope behavior is isolated from the write-budget check.
func syntheticEnvelopeProfile() *DiskProfile {
	return &DiskProfile{
		Fit:         polyfit.Poly2D{Degree: 2, Coeffs: []float64{0, 0, 0, 0, 0, 0}},
		Envelope:    polyfit.Poly1D{Coeffs: []float64{9000, -1.5}}, // 0 at 6000 MB
		HasEnvelope: true,
		WSMinMB:     100,
		WSMaxMB:     100000,
	}
}

// TestMaxRowsPerSecClampsNegativeEnvelope pins the clamp: beyond the
// envelope's root the fitted quadratic goes negative and the sustainable
// rate must read 0, not a negative rate.
func TestMaxRowsPerSecClampsNegativeEnvelope(t *testing.T) {
	p := syntheticEnvelopeProfile()
	if got := p.MaxRowsPerSec(1000e6); got != 7500 {
		t.Errorf("MaxRowsPerSec(1000 MB) = %v, want 7500", got)
	}
	if got := p.MaxRowsPerSec(50000e6); got != 0 {
		t.Errorf("MaxRowsPerSec(50 GB) = %v, want 0 (clamped)", got)
	}
}
