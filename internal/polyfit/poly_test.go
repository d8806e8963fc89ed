package polyfit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPoly1DEval(t *testing.T) {
	p := Poly1D{Coeffs: []float64{1, 2, 3}} // 1 + 2x + 3x²
	if got := p.Eval(0); got != 1 {
		t.Errorf("Eval(0) = %v, want 1", got)
	}
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval(2) = %v, want 17", got)
	}
	var empty Poly1D
	if empty.Eval(5) != 0 {
		t.Error("empty polynomial should evaluate to 0")
	}
}

func TestFit1DRecoversPolynomial(t *testing.T) {
	want := []float64{3, -2, 0.5} // 3 − 2x + 0.5x²
	xs := make([]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		x := float64(i) / 2
		xs[i] = x
		ys[i] = want[0] + want[1]*x + want[2]*x*x
	}
	p, err := Fit1D(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(p.Coeffs[i]-want[i]) > 1e-8 {
			t.Errorf("coeff[%d] = %v, want %v", i, p.Coeffs[i], want[i])
		}
	}
}

func TestFit1DErrors(t *testing.T) {
	if _, err := Fit1D([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Fit1D([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := Fit1D([]float64{1}, []float64{1}, 2); err == nil {
		t.Error("too few points should error")
	}
}

func TestNumTerms2D(t *testing.T) {
	cases := map[int]int{0: 1, 1: 3, 2: 6, 3: 10}
	for d, want := range cases {
		if got := NumTerms2D(d); got != want {
			t.Errorf("NumTerms2D(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestPoly2DEvalKnown(t *testing.T) {
	// Terms ordered 1, x, y, x², xy, y².
	p := Poly2D{Degree: 2, Coeffs: []float64{1, 0, 0, 2, 0, 3}}
	// f(x,y) = 1 + 2x² + 3y²; f(1,2) = 1 + 2 + 12 = 15
	if got := p.Eval(1, 2); math.Abs(got-15) > 1e-12 {
		t.Errorf("Eval(1,2) = %v, want 15", got)
	}
}

// TestPoly2DDeg2KernelMatchesLoop checks the straight-line degree-2 kernel
// against the generic monomial loop bit for bit — the consolidation
// objective's plans are pinned to the loop's rounding — on random,
// zero, signed-zero, negative, subnormal, huge and non-finite inputs, and
// that Eval picks the kernel exactly for the six-coefficient degree-2 shape.
func TestPoly2DDeg2KernelMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sub := math.SmallestNonzeroFloat64
	special := []float64{0, math.Copysign(0, -1), 1, -1, sub, -sub, 3 * sub, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, 1e154, -1e154, math.Inf(1), math.Inf(-1), math.NaN()}
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return rng.NormFloat64()
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		default:
			return (rng.Float64()*2 - 1) * 1e5
		}
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for i := 0; i < 200000; i++ {
		p := Poly2D{Degree: 2, Coeffs: make([]float64, 6)}
		for k := range p.Coeffs {
			p.Coeffs[k] = draw()
		}
		x, y := draw(), draw()
		kernel, loop := p.evalDeg2(x, y), p.evalLoop(x, y)
		if !same(kernel, loop) {
			t.Fatalf("coeffs %v at (%v, %v): kernel %v (%#x), loop %v (%#x)", p.Coeffs, x, y,
				kernel, math.Float64bits(kernel), loop, math.Float64bits(loop))
		}
		if got := p.Eval(x, y); !same(got, loop) {
			t.Fatalf("Eval(%v, %v) = %v, want the loop's %v", x, y, got, loop)
		}
	}
	// Every other shape stays on the loop: fewer coefficients than the
	// degree has terms, and other degrees.
	for _, p := range []Poly2D{
		{Degree: 2, Coeffs: []float64{1, 2, 3, 4}},
		{Degree: 1, Coeffs: []float64{1, 2, 3}},
		{Degree: 3, Coeffs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{Degree: 2},
	} {
		if got, want := p.Eval(1.5, -2.5), p.evalLoop(1.5, -2.5); !same(got, want) {
			t.Errorf("degree %d with %d coefficients: Eval = %v, loop = %v", p.Degree, len(p.Coeffs), got, want)
		}
	}
}

var polySink float64

// BenchmarkPoly2DEvalDeg2 times the disk model's polynomial shape — it runs
// once per time step per priced machine — on the kernel and on the loop it
// replaced.
func BenchmarkPoly2DEvalDeg2(b *testing.B) {
	p := Poly2D{Degree: 2, Coeffs: []float64{0.5, 0.0002, 0.003, 1e-9, 2e-8, 1e-8}}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			polySink += p.Eval(float64(1+i%64)*1e3, float64(100+i%977))
		}
	})
	b.Run("loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			polySink += p.evalLoop(float64(1+i%64)*1e3, float64(100+i%977))
		}
	})
}

// TestFit2DErrors checks the input validation every 2-D fit goes through.
func TestFit2DErrors(t *testing.T) {
	if _, err := design2D([]float64{1}, []float64{1, 2}, []float64{1}, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := design2D([]float64{1, 2}, []float64{1, 2}, []float64{1, 2}, -2); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := design2D([]float64{1, 2}, []float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("too few points should error")
	}
}

func TestFitLAR2DRobustToOutliers(t *testing.T) {
	// LAR must track the bulk of the data despite gross outliers, unlike L2.
	truth := Poly2D{Degree: 2, Coeffs: []float64{2, 1, 0.5, 0, 0, 0}}
	rng := rand.New(rand.NewSource(17))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * 10
		ys[i] = rng.Float64() * 10
		zs[i] = truth.Eval(xs[i], ys[i])
		if i%20 == 0 { // 5% gross outliers
			zs[i] += 500
		}
	}
	lar, err := FitLAR2D(xs, ys, zs, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	a, err := design2D(xs, ys, zs, 2)
	if err != nil {
		t.Fatal(err)
	}
	coeffs, err := SolveLeastSquares(a, zs)
	if err != nil {
		t.Fatal(err)
	}
	l2 := Poly2D{Degree: 2, Coeffs: coeffs}
	// Compare prediction error against the truth at clean points.
	var larErr, l2Err float64
	for i := 0; i < 50; i++ {
		x, y := rng.Float64()*10, rng.Float64()*10
		want := truth.Eval(x, y)
		larErr += math.Abs(lar.Eval(x, y) - want)
		l2Err += math.Abs(l2.Eval(x, y) - want)
	}
	if larErr > l2Err/4 {
		t.Errorf("LAR error %v not ≪ L2 error %v under outliers", larErr, l2Err)
	}
	if larErr/50 > 0.5 {
		t.Errorf("LAR mean error %v too large", larErr/50)
	}
}

func TestFitLAR2DDefaultsAndErrors(t *testing.T) {
	// maxIter <= 0 takes the default and still works.
	truth := Poly2D{Degree: 1, Coeffs: []float64{1, 2, 3}}
	var xs, ys, zs []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		x, y := rng.Float64(), rng.Float64()
		xs = append(xs, x)
		ys = append(ys, y)
		zs = append(zs, truth.Eval(x, y))
	}
	p, err := FitLAR2D(xs, ys, zs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Eval(0.5, 0.5)-truth.Eval(0.5, 0.5)) > 1e-6 {
		t.Error("LAR with default iterations failed to fit clean data")
	}
	if _, err := FitLAR2D([]float64{1}, []float64{1, 2}, []float64{1}, 1, 5); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := FitLAR2D([]float64{1, 2}, []float64{1, 2}, []float64{1, 2}, -2, 5); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := FitLAR2D([]float64{1}, []float64{1}, []float64{1}, 2, 5); err == nil {
		t.Error("too few points should error")
	}
}

// Property: Fit1D on exact polynomial data reproduces the inputs at the
// sample points.
func TestFit1DInterpolatesProperty(t *testing.T) {
	f := func(c0, c1, c2 int8) bool {
		coeffs := []float64{float64(c0), float64(c1), float64(c2)}
		truth := Poly1D{Coeffs: coeffs}
		xs := []float64{-2, -1, 0, 1, 2, 3}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = truth.Eval(x)
		}
		p, err := Fit1D(xs, ys, 2)
		if err != nil {
			return false
		}
		for i, x := range xs {
			if math.Abs(p.Eval(x)-ys[i]) > 1e-6*(1+math.Abs(ys[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
