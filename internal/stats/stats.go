// Package stats provides the descriptive statistics Kairos reports: the
// mean, percentiles, forecast error metrics, and the box-plot summaries the
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
