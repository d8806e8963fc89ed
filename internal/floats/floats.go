// Package floats holds the canonical floating-point comparison helpers.
// The solver's correctness discipline makes float equality load-bearing
// — screened and unscreened search must accept bit-identical plans, and
// the incremental pricers must match the scratch pricer bit for bit — so
// the kairoslint floatdet analyzer forbids raw ==/!= between computed
// floats and routes every exact comparison through this package, where
// the intent is spelled out.
package floats

import "math"

// Same reports exact (bit-level, modulo -0 == +0) equality. Use it where
// the comparison is part of a bit-identity contract — anywhere a one-ulp
// perturbation MUST flip the result. NaN is never Same as anything,
// matching ==.
func Same(a, b float64) bool {
	return a == b //kairoslint:allow floatdet: this is the canonical exact-equality helper
}

// Near reports |a-b| <= tol. NaN operands are never Near; infinities of
// equal sign are Near regardless of tol.
func Near(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b //kairoslint:allow floatdet: infinities compare exactly by design
	}
	return math.Abs(a-b) <= tol
}
