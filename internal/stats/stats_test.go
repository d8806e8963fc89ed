package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"kairos/internal/floats"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"uniform", []float64{2, 2, 2, 2}, 2},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{25, 20},
		{50, 35},
		{75, 40},
		{100, 50},
		{40, 29}, // rank 1.6 → 20 + 0.6*(35-20)
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("Percentile(empty) err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{1, 2, 3}
	if got, _ := RMSE(pred, act); got != 0 {
		t.Errorf("RMSE of identical = %v, want 0", got)
	}
	got, err := RMSE([]float64{0, 0}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(12.5)
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("RMSE length mismatch should error")
	}
	if _, err := RMSE(nil, nil); err != ErrEmpty {
		t.Error("RMSE(empty) should return ErrEmpty")
	}
}

func TestMAE(t *testing.T) {
	mae, err := MAE([]float64{1, 5, 2}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mae, 4.0/3, 1e-12) {
		t.Errorf("MAE = %v, want 4/3", mae)
	}
	if _, err := MAE([]float64{1}, nil); err == nil {
		t.Error("MAE mismatch should error")
	}
	if _, err := MAE(nil, nil); err != ErrEmpty {
		t.Error("MAE(empty) should return ErrEmpty")
	}
}

// Property: for any sample, Percentile(0) == min and Percentile(100) == max,
// and percentiles are monotone in p.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p0, _ := Percentile(xs, 0)
		p100, _ := Percentile(xs, 100)
		mn, mx := slices.Min(xs), slices.Max(xs)
		if !floats.Same(p0, mn) || !floats.Same(p100, mx) {
			return false
		}
		prev := p0
		for p := 10.0; p <= 100; p += 10 {
			cur, _ := Percentile(xs, p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		mn, mx := slices.Min(xs), slices.Max(xs)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
