package predict

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"kairos/internal/fleet"
	"kairos/internal/floats"
	"kairos/internal/series"
	"kairos/internal/stats"
)

func TestValidation(t *testing.T) {
	s := series.Constant(time.Unix(0, 0), time.Minute, 30, 1)
	if _, err := AverageOfWeeks(nil, 10, 2, 2); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := AverageOfWeeks(s, 0, 2, 2); err == nil {
		t.Error("zero week length accepted")
	}
	if _, err := AverageOfWeeks(s, 10, 0, 2); err == nil {
		t.Error("zero history accepted")
	}
	if _, err := AverageOfWeeks(s, 10, 2, 1); err == nil {
		t.Error("target inside history accepted")
	}
	if _, err := AverageOfWeeks(s, 10, 2, 5); err == nil {
		t.Error("target beyond trace accepted")
	}
}

func TestPerfectlyPeriodicTraceHasZeroError(t *testing.T) {
	// A trace that repeats exactly week over week is perfectly predicted.
	week := 20
	trace := series.FromFunc(time.Unix(0, 0), time.Minute, 3*week, func(_ time.Time, i int) float64 {
		return 5 + math.Sin(2*math.Pi*float64(i%week)/float64(week))
	})
	f, err := AverageOfWeeks(trace, week, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.RMSE > 1e-9 {
		t.Errorf("RMSE = %v, want 0 for periodic trace", f.RMSE)
	}
	if f.Prediction.Len() != week || f.Actual.Len() != week {
		t.Error("forecast slices have wrong length")
	}
}

func TestAveragingSmoothsNoise(t *testing.T) {
	// Averaging two noisy history weeks predicts better than copying the
	// immediately preceding week (variance halves).
	week := 500
	noise := func(i, w int) float64 {
		// Deterministic pseudo-noise, different per week.
		x := float64((i*2654435761 + w*40503) % 1000)
		return (x/1000 - 0.5) * 2
	}
	mk := func(w int) []float64 {
		out := make([]float64, week)
		for i := range out {
			out[i] = 10 + 3*math.Sin(2*math.Pi*float64(i)/float64(week)) + noise(i, w)
		}
		return out
	}
	var all []float64
	for w := 0; w < 3; w++ {
		all = append(all, mk(w)...)
	}
	trace := series.New(time.Unix(0, 0), time.Minute, all)

	avg2, err := AverageOfWeeks(trace, week, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	copy1, err := AverageOfWeeks(trace, week, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avg2.RMSE >= copy1.RMSE {
		t.Errorf("averaging should beat last-week copy: avg=%v copy=%v", avg2.RMSE, copy1.RMSE)
	}
}

// Regression: a non-positive actual mean used to report CVRMSEPct = 0 — a
// "perfect" forecast for an idle (or sign-cancelling) window — which would
// let dead series slip under any drift-detection error threshold. The ratio
// is undefined there, so it must be NaN.
func TestNonPositiveMeanGivesNaNError(t *testing.T) {
	week := 10
	cases := []struct {
		name string
		mk   func(i, w int) float64
	}{
		{"all-zero", func(i, w int) float64 { return 0 }},
		{"negative-mean", func(i, w int) float64 { return -3 }},
		{"sign-cancelling", func(i, w int) float64 {
			if i%2 == 0 {
				return 1
			}
			return -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vals := make([]float64, 3*week)
			for i := range vals {
				vals[i] = tc.mk(i%week, i/week)
			}
			// Make history weeks differ from the target so RMSE > 0 and a
			// bogus 0% error cannot hide behind a genuinely perfect forecast.
			for i := 0; i < week; i++ {
				vals[i] += 5
			}
			trace := series.New(time.Unix(0, 0), time.Minute, vals)
			fc, err := AverageOfWeeks(trace, week, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if fc.RMSE <= 0 {
				t.Fatalf("test setup broken: RMSE = %v, want > 0", fc.RMSE)
			}
			if !math.IsNaN(fc.CVRMSEPct) {
				t.Errorf("CVRMSEPct = %v for actual mean %v, want NaN",
					fc.CVRMSEPct, fc.Actual.Mean())
			}
		})
	}
}

func TestMeanOfWindows(t *testing.T) {
	start := time.Unix(0, 0)
	a := series.New(start, time.Minute, []float64{1, 2, 3})
	b := series.New(start, time.Minute, []float64{3, 4, 5})
	m, err := MeanOfWindows([]*series.Series{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 3, 4} {
		if !floats.Same(m.Values[i], want) {
			t.Errorf("mean[%d] = %v, want %v", i, m.Values[i], want)
		}
	}
	if _, err := MeanOfWindows(nil); err == nil {
		t.Error("empty window list accepted")
	}
	if _, err := MeanOfWindows([]*series.Series{a, nil}); err == nil {
		t.Error("nil window accepted")
	}
	short := series.New(start, time.Minute, []float64{1})
	if _, err := MeanOfWindows([]*series.Series{a, short}); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestMeanOfWindowsAllocs: the mean is written straight into the series it
// returns, two allocations (the series and its samples) however many
// windows it averages, and its bits are those of scaling series.Sum by
// 1/n, which cloned each forecast series twice.
func TestMeanOfWindowsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	start := time.Unix(0, 0)
	for _, n := range []int{1, 2, 3, 8} {
		windows := make([]*series.Series, n)
		for w := range windows {
			v := make([]float64, 288)
			for i := range v {
				v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			if w == 0 {
				v[0] = math.Copysign(0, -1)
			}
			windows[w] = series.New(start, 5*time.Minute, v)
		}
		sum, err := series.Sum(windows)
		if err != nil {
			t.Fatal(err)
		}
		want := sum.Scale(1 / float64(n))
		got, err := MeanOfWindows(windows)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Start.Equal(want.Start) || got.Step != want.Step || len(got.Values) != len(want.Values) {
			t.Fatalf("%d windows: shape %v×%d, want %v×%d", n, got.Step, got.Len(), want.Step, want.Len())
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%d windows: sample %d = %v, want %v", n, i, got.Values[i], want.Values[i])
			}
		}
		if raceEnabled {
			continue
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = MeanOfWindows(windows) }); a != 2 {
			t.Errorf("%d windows: MeanOfWindows allocated %v times per run, want 2", n, a)
		}
	}
}

// TestRollingRMSE scores the rolling forecast on hand-checked windows: a
// perfect forecast is 0, a 10% drift of a mean-2 window scores RMSE 0.2.
// The detector scores every workload of every window with it, so it must
// allocate nothing (not checked under the race detector, which instruments
// allocations).
func TestRollingRMSE(t *testing.T) {
	start := time.Unix(0, 0)
	h1 := series.New(start, time.Minute, []float64{1, 1, 1, 1})
	h2 := series.New(start, time.Minute, []float64{3, 3, 3, 3})
	actual := series.New(start, time.Minute, []float64{2, 2, 2, 2})
	history := []*series.Series{h1, h2}
	if got := RollingRMSE(history, actual); got != 0 {
		t.Errorf("perfect forecast scored RMSE=%v, want 0", got)
	}
	if got := RollingRMSE(history, actual.Scale(1.1)); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RMSE = %v, want 0.2", got)
	}
	if raceEnabled {
		return
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += RollingRMSE(history, actual) }); n != 0 {
		t.Errorf("RollingRMSE allocated %v times per run, want 0", n)
	}
	_ = sink
}

// TestRollingRMSEMatchesMeanOfWindows holds the kernel to the computation
// it replaces, bit for bit: stats.RMSE of the MeanOfWindows forecast, for
// one to four history windows of random values, positive, zero-mean and
// negative alike.
func TestRollingRMSEMatchesMeanOfWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	start := time.Unix(0, 0)
	window := func(n int, offset float64) *series.Series {
		v := make([]float64, n)
		for i := range v {
			v[i] = offset + rng.NormFloat64()*math.Pow(10, float64(rng.Intn(7)-3))
		}
		return series.New(start, 5*time.Minute, v)
	}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		offset := []float64{0, 1, -1, 1e6, -3e-4}[trial%5]
		history := make([]*series.Series, 1+trial%4)
		for i := range history {
			history[i] = window(n, offset)
		}
		actual := window(n, offset)
		if trial%7 == 0 {
			actual = series.Constant(start, 5*time.Minute, n, 0) // mean 0: CV undefined
		}
		mean, err := MeanOfWindows(history)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.RMSE(mean.Values, actual.Values)
		if err != nil {
			t.Fatal(err)
		}
		if got := RollingRMSE(history, actual); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (history %d, n %d): RollingRMSE = %v, stats.RMSE(MeanOfWindows) = %v",
				trial, len(history), n, got, want)
		}
	}
}

func TestFleetPredictability(t *testing.T) {
	// The Figure 13 result: for Wikipedia and Second Life, the average of
	// weeks 1–2 predicts week 3 within ≈10% of the mean load.
	for _, d := range []fleet.Dataset{fleet.Wikipedia, fleet.SecondLife} {
		f := fleet.GenerateWeeks(d, 3)
		agg := f.AggregateCPU()
		fc, err := AverageOfWeeks(agg, 7*fleet.SamplesPerDay, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if fc.CVRMSEPct <= 0 || fc.CVRMSEPct > 15 {
			t.Errorf("%v: relative error %.1f%%, want ≈7-8%% (≤15%%)", d, fc.CVRMSEPct)
		}
	}
}
