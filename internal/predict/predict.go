// Package predict validates the assumption behind stable consolidation
// plans: that past workload behaviour predicts future behaviour (paper
// Section 7.5, Figure 13). The paper averages the first two weeks of CPU
// load to predict the third and reports an RMSE around 25 (≈7–8% of load).
//
// The same machinery powers event-driven re-consolidation: drift.Detector
// scores a rolling mean-of-recent-windows forecast against each new
// observation window (RollingRMSE), and the watch loop feeds the forecast
// series (MeanOfWindows) — not the stale profile — into the warm re-solve.
package predict

import (
	"fmt"
	"math"

	"kairos/internal/series"
	"kairos/internal/stats"
)

// WeeklyForecast is the outcome of a past-predicts-future experiment.
type WeeklyForecast struct {
	// Prediction is the forecast series for the target window.
	Prediction *series.Series
	// Actual is the observed target window.
	Actual *series.Series
	// RMSE is the root-mean-squared error between them.
	RMSE float64
	// CVRMSEPct is the coefficient of variation of the RMSE — RMSE divided
	// by the actual window's mean, in percent (the paper's "7–8% off from
	// the actual load"). It is NaN when the actual mean is not positive:
	// the ratio is undefined there, and reporting 0 (a "perfect" forecast,
	// as earlier versions did) would let an idle or corrupt window slip
	// under any drift-detection error threshold.
	CVRMSEPct float64
}

// scoreForecast fills in the error metrics of a forecast against its
// observed window.
func scoreForecast(pred, actual *series.Series) (WeeklyForecast, error) {
	rmse, err := stats.RMSE(pred.Values, actual.Values)
	if err != nil {
		return WeeklyForecast{}, err
	}
	out := WeeklyForecast{Prediction: pred, Actual: actual, RMSE: rmse, CVRMSEPct: math.NaN()}
	if mean := actual.Mean(); mean > 0 {
		out.CVRMSEPct = rmse / mean * 100
	}
	return out, nil
}

// MeanOfWindows returns the element-wise mean of the given same-shape
// windows — the rolling forecast for the next window. The first window
// defines start and step.
func MeanOfWindows(windows []*series.Series) (*series.Series, error) {
	if len(windows) == 0 {
		return nil, fmt.Errorf("predict: no windows to average")
	}
	for i, w := range windows {
		if w == nil {
			return nil, fmt.Errorf("predict: window %d is nil", i)
		}
	}
	sum, err := series.Sum(windows)
	if err != nil {
		return nil, err
	}
	return sum.Scale(1 / float64(len(windows))), nil
}

// RollingRMSE is the RMSE of the rolling forecast — the element-wise mean
// of the history windows — against the actual window, without building the
// forecast: it equals stats.RMSE(MeanOfWindows(history), actual) bit for
// bit, because it does the same operations in the same order. Per sample,
// the history is summed h0 + h1 + … left to right and scaled by 1/n, and
// (p − a)² is summed over the samples left to right; then √(ss/len). The
// float64 conversions are rounding barriers: no architecture may fuse a
// product into an FMA that the two-step computation does not. Every
// history window must have the actual window's length (drift.Detector
// holds every window it keeps to its baseline's shape); history must not
// be empty.
//
//kairos:hotpath
func RollingRMSE(history []*series.Series, actual *series.Series) float64 {
	inv := 1 / float64(len(history))
	var ss float64
	for i, a := range actual.Values {
		p := history[0].Values[i]
		for _, h := range history[1:] {
			p += h.Values[i]
		}
		d := float64(p*inv) - a
		ss += float64(d * d)
	}
	return math.Sqrt(ss / float64(len(actual.Values)))
}

// AverageOfWeeks predicts week `target` (0-based) of a trace as the
// element-wise average of the preceding `history` weeks, and scores the
// prediction against the actual week. samplesPerWeek is the number of
// samples in one week.
func AverageOfWeeks(trace *series.Series, samplesPerWeek, history, target int) (WeeklyForecast, error) {
	if trace == nil || samplesPerWeek <= 0 {
		return WeeklyForecast{}, fmt.Errorf("predict: nil trace or bad week length %d", samplesPerWeek)
	}
	if history < 1 {
		return WeeklyForecast{}, fmt.Errorf("predict: need at least one history week, got %d", history)
	}
	if target < history {
		return WeeklyForecast{}, fmt.Errorf("predict: target week %d has only %d prior weeks, need %d",
			target, target, history)
	}
	if (target+1)*samplesPerWeek > trace.Len() {
		return WeeklyForecast{}, fmt.Errorf("predict: trace has %d samples, target week %d needs %d",
			trace.Len(), target, (target+1)*samplesPerWeek)
	}

	weeks := make([]*series.Series, 0, history)
	for w := target - history; w < target; w++ {
		s, err := trace.Slice(w*samplesPerWeek, (w+1)*samplesPerWeek)
		if err != nil {
			return WeeklyForecast{}, err
		}
		weeks = append(weeks, s)
	}
	pred, err := MeanOfWindows(weeks)
	if err != nil {
		return WeeklyForecast{}, err
	}
	actual, err := trace.Slice(target*samplesPerWeek, (target+1)*samplesPerWeek)
	if err != nil {
		return WeeklyForecast{}, err
	}
	return scoreForecast(pred, actual)
}
