package polyfit

import (
	"fmt"
	"math"
)

// Poly2D.Eval runs at every time step of the consolidation evaluator's disk
// pricing. internal/core's TestLoadStatePricingAllocationFree pins it at
// zero allocations through the disk model, on the unrolled quadratic
// (evalDeg2) and on a cubic (evalLoop).

// Poly1D is a univariate polynomial c[0] + c[1]·x + c[2]·x² + …
type Poly1D struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Poly1D) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// Fit1D fits a degree-d polynomial to (xs, ys) by ordinary least squares.
func Fit1D(xs, ys []float64, degree int) (Poly1D, error) {
	if len(xs) != len(ys) {
		return Poly1D{}, fmt.Errorf("polyfit: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if degree < 0 {
		return Poly1D{}, fmt.Errorf("polyfit: negative degree %d", degree)
	}
	if len(xs) < degree+1 {
		return Poly1D{}, fmt.Errorf("polyfit: need at least %d points for degree %d, have %d",
			degree+1, degree, len(xs))
	}
	a := NewMatrix(len(xs), degree+1)
	for r, x := range xs {
		pow := 1.0
		for c := 0; c <= degree; c++ {
			a.Set(r, c, pow)
			pow *= x
		}
	}
	coeffs, err := SolveLeastSquares(a, ys)
	if err != nil {
		return Poly1D{}, err
	}
	return Poly1D{Coeffs: coeffs}, nil
}

// Poly2D is a bivariate polynomial of total degree ≤ Degree with terms
// ordered (1, x, y, x², xy, y², x³, …). The paper's disk model is the
// Degree=2 case: f(ws, rate) with six coefficients.
type Poly2D struct {
	Degree int
	Coeffs []float64
}

// NumTerms2D returns the number of monomials of total degree ≤ d in two
// variables: (d+1)(d+2)/2.
func NumTerms2D(d int) int { return (d + 1) * (d + 2) / 2 }

// basis2D writes the monomial values for (x, y) into out, ordered by total
// degree then by descending power of x: 1, x, y, x², xy, y², …
func basis2D(x, y float64, degree int, out []float64) {
	i := 0
	for total := 0; total <= degree; total++ {
		for px := total; px >= 0; px-- {
			py := total - px
			out[i] = math.Pow(x, float64(px)) * math.Pow(y, float64(py))
			i++
		}
	}
}

// Eval evaluates the polynomial at (x, y). It sits in the consolidation
// evaluator's per-time-step disk pricing loop, so the six-coefficient
// degree-2 case the disk profiles use runs the straight-line evalDeg2;
// every other shape walks the monomials in evalLoop. The two agree bit for
// bit where both apply, and for degree ≤ 2 the terms are bit-identical to
// the math.Pow basis the fit was computed with.
func (p Poly2D) Eval(x, y float64) float64 {
	if p.Degree == 2 && len(p.Coeffs) == 6 {
		return p.evalDeg2(x, y)
	}
	return p.evalLoop(x, y)
}

// evalDeg2 is evalLoop unrolled for Degree 2 with all six coefficients: the
// same terms (1, x, y, x·x, x·y, y·y) added to the same zero accumulator in
// the same order. Every product is rounded through float64(...) before it
// is used, here and in evalLoop, so no architecture may fuse one form's
// multiply-adds and not the other's.
func (p Poly2D) evalDeg2(x, y float64) float64 {
	c := p.Coeffs[:6]
	v := 0 + c[0]
	v += float64(c[1] * x)
	v += float64(c[2] * y)
	v += float64(c[3] * float64(x*x))
	v += float64(c[4] * float64(x*y))
	v += float64(c[5] * float64(y*y))
	return v
}

// evalLoop walks the monomials in basis order without materializing them
// and builds each power by repeated multiplication, so evaluation allocates
// nothing and avoids math.Pow.
func (p Poly2D) evalLoop(x, y float64) float64 {
	var v float64
	i := 0
	for total := 0; total <= p.Degree && i < len(p.Coeffs); total++ {
		for px := total; px >= 0 && i < len(p.Coeffs); px-- {
			term := 1.0
			for k := 0; k < px; k++ {
				term = float64(term * x)
			}
			for k := 0; k < total-px; k++ {
				term = float64(term * y)
			}
			v += float64(p.Coeffs[i] * term)
			i++
		}
	}
	return v
}

// design2D constructs the Vandermonde-style design matrix for a 2-D fit.
func design2D(xs, ys, zs []float64, degree int) (*Matrix, error) {
	if len(xs) != len(ys) || len(xs) != len(zs) {
		return nil, fmt.Errorf("polyfit: 2D fit length mismatch %d/%d/%d", len(xs), len(ys), len(zs))
	}
	if degree < 0 {
		return nil, fmt.Errorf("polyfit: negative degree %d", degree)
	}
	terms := NumTerms2D(degree)
	if len(xs) < terms {
		return nil, fmt.Errorf("polyfit: need at least %d points for 2D degree %d, have %d",
			terms, degree, len(xs))
	}
	a := NewMatrix(len(xs), terms)
	row := make([]float64, terms)
	for r := range xs {
		basis2D(xs[r], ys[r], degree, row)
		for c, v := range row {
			a.Set(r, c, v)
		}
	}
	return a, nil
}

// FitLAR2D fits a total-degree-d bivariate polynomial minimizing the sum of
// absolute residuals (LAR / L1), the robust criterion the paper uses for the
// disk model. It uses iteratively-reweighted least squares with weights
// 1/max(|residual|, δ); maxIter bounds the iteration count (20 is plenty).
func FitLAR2D(xs, ys, zs []float64, degree, maxIter int) (Poly2D, error) {
	a, err := design2D(xs, ys, zs, degree)
	if err != nil {
		return Poly2D{}, err
	}
	if maxIter <= 0 {
		maxIter = 20
	}
	// Start from the L2 solution.
	coeffs, err := SolveLeastSquares(a, zs)
	if err != nil {
		return Poly2D{}, err
	}
	const delta = 1e-6
	w := make([]float64, len(zs))
	for iter := 0; iter < maxIter; iter++ {
		pred, err := a.MulVec(coeffs)
		if err != nil {
			return Poly2D{}, err
		}
		for i := range w {
			res := math.Abs(pred[i] - zs[i])
			if res < delta {
				res = delta
			}
			w[i] = 1 / res
		}
		next, err := SolveWeightedLeastSquares(a, zs, w)
		if err != nil {
			return Poly2D{}, err
		}
		var change float64
		for i := range next {
			change += math.Abs(next[i] - coeffs[i])
		}
		coeffs = next
		if change < 1e-10 {
			break
		}
	}
	return Poly2D{Degree: degree, Coeffs: coeffs}, nil
}
