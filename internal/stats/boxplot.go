package stats

import "sort"

// BoxPlot is the five-number summary plus outliers used by the paper's
// Figure 9 to display per-server CPU load. Outliers are points outside
// [q1 − 1.5·IQR, q3 + 1.5·IQR] (the paper states the equivalent
// [q1 − 3/2(q3−q1), q3 + 3/2(q3−q1)] interval).
type BoxPlot struct {
	Min      float64   // smallest non-outlier value (lower whisker)
	Q1       float64   // 25th percentile
	Median   float64   // 50th percentile
	Q3       float64   // 75th percentile
	Max      float64   // largest non-outlier value (upper whisker)
	Outliers []float64 // points beyond the whiskers, ascending
}

// NewBoxPlot summarizes the sample xs. It returns ErrEmpty for an empty
// sample.
func NewBoxPlot(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	bp := BoxPlot{
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
	}
	iqr := bp.Q3 - bp.Q1
	loFence := bp.Q1 - 1.5*iqr
	hiFence := bp.Q3 + 1.5*iqr

	bp.Min = bp.Q1
	bp.Max = bp.Q3
	first := true
	for _, x := range sorted {
		if x < loFence || x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			continue
		}
		if first {
			bp.Min = x
			first = false
		}
		bp.Max = x
	}
	if first {
		// Every point was an outlier (possible only for degenerate data);
		// fall back to the quartiles as whiskers.
		bp.Min, bp.Max = bp.Q1, bp.Q3
	}
	// Whiskers never sit inside the box: if all points on one side of the
	// box are outliers, the whisker is drawn at the box edge.
	if bp.Min > bp.Q1 {
		bp.Min = bp.Q1
	}
	if bp.Max < bp.Q3 {
		bp.Max = bp.Q3
	}
	return bp, nil
}
