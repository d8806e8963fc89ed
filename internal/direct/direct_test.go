package direct

import (
	"math"
	"testing"
	"testing/quick"

	"kairos/internal/floats"
)

func TestMinimizeValidation(t *testing.T) {
	f := func(x []float64) float64 { return x[0] }
	if _, err := Minimize(f, nil, nil, Options{}); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := Minimize(f, []float64{0}, []float64{0, 1}, Options{}); err == nil {
		t.Error("mismatched bounds accepted")
	}
	if _, err := Minimize(f, []float64{1}, []float64{0}, Options{}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := Minimize(nil, []float64{0}, []float64{1}, Options{}); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestSphere(t *testing.T) {
	// Global minimum 0 at (0.3, -0.7) inside an asymmetric box.
	f := func(x []float64) float64 {
		dx, dy := x[0]-0.3, x[1]+0.7
		return dx*dx + dy*dy
	}
	res, err := Minimize(f, []float64{-2, -2}, []float64{2, 2}, Options{MaxFevals: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-4 {
		t.Errorf("sphere: F = %v at %v, want ≈0", res.F, res.X)
	}
}

func TestBranin(t *testing.T) {
	// Branin-Hoo: three global minima with f* ≈ 0.397887.
	f := func(x []float64) float64 {
		a, b, c := 1.0, 5.1/(4*math.Pi*math.Pi), 5/math.Pi
		r, s, tt := 6.0, 10.0, 1/(8*math.Pi)
		v := x[1] - b*x[0]*x[0] + c*x[0] - r
		return a*v*v + s*(1-tt)*math.Cos(x[0]) + s
	}
	res, err := Minimize(f, []float64{-5, 0}, []float64{10, 15}, Options{MaxFevals: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 0.398+0.01 {
		t.Errorf("branin: F = %v, want ≈0.3979", res.F)
	}
}

func TestSixHumpCamel(t *testing.T) {
	// f* = -1.0316 at (±0.0898, ∓0.7126).
	f := func(x []float64) float64 {
		x1, x2 := x[0], x[1]
		return (4-2.1*x1*x1+x1*x1*x1*x1/3)*x1*x1 + x1*x2 + (-4+4*x2*x2)*x2*x2
	}
	res, err := Minimize(f, []float64{-3, -2}, []float64{3, 2}, Options{MaxFevals: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > -1.0316+0.01 {
		t.Errorf("camel: F = %v, want ≈-1.0316", res.F)
	}
}

func TestRastrigin(t *testing.T) {
	// Highly multimodal; global minimum 0 at origin. DIRECT should get
	// close to the global basin, far below the best local minima (≈1).
	f := func(x []float64) float64 {
		sum := 10.0 * float64(len(x))
		for _, v := range x {
			sum += v*v - 10*math.Cos(2*math.Pi*v)
		}
		return sum
	}
	res, err := Minimize(f, []float64{-5.12, -5.12}, []float64{5.12, 5.12}, Options{MaxFevals: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 0.5 {
		t.Errorf("rastrigin: F = %v, want < 0.5 (global basin)", res.F)
	}
}

func TestRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := Minimize(f, []float64{-2, -2}, []float64{2, 2}, Options{MaxFevals: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 0.05 {
		t.Errorf("rosenbrock: F = %v at %v, want < 0.05", res.F, res.X)
	}
}

func TestHigherDimensional(t *testing.T) {
	// 6-D shifted sphere: DIRECT must make clear progress from the center.
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - 0.2*float64(i%3)
			s += d * d
		}
		return s
	}
	lo := make([]float64, 6)
	hi := make([]float64, 6)
	for i := range lo {
		lo[i], hi[i] = -1, 1
	}
	res, err := Minimize(f, lo, hi, Options{MaxFevals: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 0.01 {
		t.Errorf("6-D sphere: F = %v, want < 0.01", res.F)
	}
}

func TestBudgetRespected(t *testing.T) {
	count := 0
	f := func(x []float64) float64 {
		count++
		return x[0] * x[0]
	}
	res, err := Minimize(f, []float64{-1}, []float64{1}, Options{MaxFevals: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Each division samples at most 2 points past the check; allow slack 2.
	if count > 102 {
		t.Errorf("evaluations = %d, budget 100", count)
	}
	if res.Fevals != count {
		t.Errorf("Fevals = %d, actual %d", res.Fevals, count)
	}
}

func TestDeterministic(t *testing.T) {
	f := func(x []float64) float64 { return math.Sin(5*x[0]) + x[1]*x[1] }
	opts := Options{MaxFevals: 500}
	r1, err := Minimize(f, []float64{0, -1}, []float64{3, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Minimize(f, []float64{0, -1}, []float64{3, 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !floats.Same(r1.F, r2.F) || !floats.Same(r1.X[0], r2.X[0]) || !floats.Same(r1.X[1], r2.X[1]) {
		t.Error("DIRECT should be fully deterministic")
	}
}

func TestEpsilonTradeoff(t *testing.T) {
	// With a large epsilon DIRECT explores more; with a tiny epsilon it
	// polishes more. Both must still find the smooth unimodal optimum.
	f := func(x []float64) float64 {
		return (x[0] - 0.77) * (x[0] - 0.77)
	}
	for _, eps := range []float64{1e-7, 1e-4, 1e-2} {
		res, err := Minimize(f, []float64{0}, []float64{1}, Options{MaxFevals: 500, Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		if res.F > 1e-4 {
			t.Errorf("eps=%v: F = %v, want ≈0", eps, res.F)
		}
	}
}

// Property: the result always lies within bounds and F matches f(X).
func TestPropertyWithinBounds(t *testing.T) {
	prop := func(aRaw, bRaw uint8, c uint8) bool {
		lo := float64(aRaw)/16 - 8
		hi := lo + 0.5 + float64(bRaw)/32
		shift := float64(c) / 255 * (hi - lo)
		f := func(x []float64) float64 {
			d := x[0] - (lo + shift)
			return d * d
		}
		res, err := Minimize(f, []float64{lo}, []float64{hi}, Options{MaxFevals: 200})
		if err != nil {
			return false
		}
		if res.X[0] < lo-1e-9 || res.X[0] > hi+1e-9 {
			return false
		}
		d := res.X[0] - (lo + shift)
		return math.Abs(res.F-d*d) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
