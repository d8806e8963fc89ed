// Package stats provides the descriptive statistics used throughout Kairos:
// percentiles, empirical CDFs, error metrics, and the box-plot summaries the
// paper uses to report per-server load balance (Figure 9).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Min returns the smallest element of xs. It panics on an empty slice; use
// MinMax for an error-returning variant.
func Min(xs []float64) float64 {
	mn, _, err := MinMax(xs)
	if err != nil {
		panic(err)
	}
	return mn
}

// Max returns the largest element of xs. It panics on an empty slice; use
// MinMax for an error-returning variant.
func Max(xs []float64) float64 {
	_, mx, err := MinMax(xs)
	if err != nil {
		panic(err)
	}
	return mx
}

// MinMax returns the smallest and largest elements of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks, the same convention as numpy's
// default. It returns an error for an empty sample or p outside [0,100].
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

// percentileSorted computes a percentile over an already-sorted sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles returns several percentiles of xs in one pass over a single
// sorted copy. The result is parallel to ps.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of range [0,100]")
		}
		out[i] = percentileSorted(sorted, p)
	}
	return out, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// RMSE returns the root-mean-squared error between predicted and actual.
// The two slices must have equal, non-zero length. Each square is rounded
// before it is summed (no FMA on any architecture), as predict.RollingRMSE
// rounds it, so the two agree bit for bit everywhere.
func RMSE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, errors.New("stats: RMSE length mismatch")
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	var ss float64
	for i := range predicted {
		d := predicted[i] - actual[i]
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(predicted))), nil
}

// MAE returns the mean absolute error between predicted and actual.
func MAE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, errors.New("stats: MAE length mismatch")
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for i := range predicted {
		sum += math.Abs(predicted[i] - actual[i])
	}
	return sum / float64(len(predicted)), nil
}

// MaxAbsError returns the largest absolute difference between predicted and
// actual.
func MaxAbsError(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, errors.New("stats: MaxAbsError length mismatch")
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	var mx float64
	for i := range predicted {
		if d := math.Abs(predicted[i] - actual[i]); d > mx {
			mx = d
		}
	}
	return mx, nil
}
