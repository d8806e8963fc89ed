// Package series implements the regularly-sampled time series that Kairos
// uses for workload resource profiles. The paper works with 24-hour windows
// sampled every 5 minutes (288 samples) and with weekly windows; this package
// provides construction, combination, resampling, and summary operations for
// those profiles.
package series

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Series is a regularly-sampled time series: Values[i] is the sample at
// Start + i·Step. The zero value is an empty series.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// ErrMismatch is returned when combining series with differing shape.
var ErrMismatch = errors.New("series: step/length mismatch")

// New creates a series with the given start, step, and values (not copied).
func New(start time.Time, step time.Duration, values []float64) *Series {
	return &Series{Start: start, Step: step, Values: values}
}

// Constant creates a series of n samples all equal to v.
func Constant(start time.Time, step time.Duration, n int, v float64) *Series {
	values := make([]float64, n)
	for i := range values {
		values[i] = v
	}
	return New(start, step, values)
}

// FromFunc creates a series of n samples where sample i is f(t_i, i) with
// t_i = start + i·step. Useful for synthetic load patterns.
func FromFunc(start time.Time, step time.Duration, n int, f func(t time.Time, i int) float64) *Series {
	values := make([]float64, n)
	for i := range values {
		values[i] = f(start.Add(time.Duration(i)*step), i)
	}
	return New(start, step, values)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	return New(s.Start, s.Step, append([]float64(nil), s.Values...))
}

// sameShape reports whether two series can be combined element-wise.
func (s *Series) sameShape(o *Series) bool {
	return s.Step == o.Step && len(s.Values) == len(o.Values)
}

// Add returns a new series that is the element-wise sum s + o.
func (s *Series) Add(o *Series) (*Series, error) {
	if !s.sameShape(o) {
		return nil, ErrMismatch
	}
	out := s.Clone()
	for i, v := range o.Values {
		out.Values[i] += v
	}
	return out, nil
}

// AddInPlace adds o into s element-wise.
func (s *Series) AddInPlace(o *Series) error {
	if !s.sameShape(o) {
		return ErrMismatch
	}
	for i, v := range o.Values {
		s.Values[i] += v
	}
	return nil
}

// Scale returns a new series with every sample multiplied by k.
func (s *Series) Scale(k float64) *Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] *= k
	}
	return out
}

// Shift returns a new series with every sample increased by k.
func (s *Series) Shift(k float64) *Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] += k
	}
	return out
}

// Clamp returns a new series with every sample clamped to [lo, hi].
func (s *Series) Clamp(lo, hi float64) *Series {
	out := s.Clone()
	for i, v := range out.Values {
		out.Values[i] = math.Min(hi, math.Max(lo, v))
	}
	return out
}

// Max returns the largest sample, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	mx := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Min returns the smallest sample, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	mn := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Sum combines multiple same-shape series into their element-wise sum. The
// first series defines start and step. Sum(nil) returns an empty series.
func Sum(ss []*Series) (*Series, error) {
	if len(ss) == 0 {
		return &Series{}, nil
	}
	out := ss[0].Clone()
	for _, s := range ss[1:] {
		if err := out.AddInPlace(s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Slice returns the sub-series covering samples [from, to).
func (s *Series) Slice(from, to int) (*Series, error) {
	if from < 0 || to > len(s.Values) || from > to {
		return nil, fmt.Errorf("series: slice [%d,%d) out of range 0..%d", from, to, len(s.Values))
	}
	return New(s.TimeAt(from), s.Step, append([]float64(nil), s.Values[from:to]...)), nil
}

// String renders a short human-readable summary.
func (s *Series) String() string {
	return fmt.Sprintf("Series{n=%d step=%v mean=%.3f max=%.3f}", s.Len(), s.Step, s.Mean(), s.Max())
}
