// Package stats holds the benchmark's arithmetic: order statistics of
// latency samples, which percentile a sample is large enough to report,
// the self time of a span given its children, and the rule that decides
// whether a metric regressed against its bound.
package stats

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Percentile returns the p-th percentile (0–100) of v by linear
// interpolation between closest ranks; NaN for an empty sample.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// Median is the 50th percentile.
func Median(v []float64) float64 { return Percentile(v, 50) }

// Quartiles returns the first quartile, the median and the third quartile
// of the runs of one metric, by the exclusive method (the cut points of
// Python's statistics.quantiles(v, n=4), which is what the driver that
// judges the benchmark's steadiness computes). NaN for an empty sample.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(v)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the distance between the quartiles as a share of the median:
// the run-to-run spread the bounds are judged against.
func Spread(v []float64) float64 {
	q1, q2, q3 := Quartiles(v)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailCandidates are the percentiles a tail may be reported at, each
// with the share of samples beyond it in thousandths.
var tailCandidates = []struct {
	pct    float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {80, 200}, {75, 250}}

// TailPercentile returns the highest reportable percentile that has at
// least ten of n samples beyond it, and false when n is too small for
// any (fewer than forty samples: a tail would be a handful of points).
func TailPercentile(n int) (float64, bool) {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*1000 {
			return c.pct, true
		}
	}
	return 0, false
}

// Interval is a half-open time interval [Start, End) in any one unit.
type Interval struct{ Start, End float64 }

// SelfTime is the span's duration minus the part of it that its children
// cover. Children may overlap one another and may stick out of the span;
// only their union inside the span counts.
func SelfTime(span Interval, children []Interval) float64 {
	total := span.End - span.Start
	if total <= 0 {
		return 0
	}
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		c.Start = math.Max(c.Start, span.Start)
		c.End = math.Min(c.End, span.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	covered, reach := 0.0, span.Start
	for _, c := range clipped {
		if c.End <= reach {
			continue
		}
		covered += c.End - math.Max(c.Start, reach)
		reach = c.End
	}
	return total - covered
}

// Worsening is how much worse `now` is than `base`, as a share of base,
// in the metric's own direction: positive means worse. higherBetter says
// which way the metric is meant to move.
func Worsening(base, now float64, higherBetter bool) float64 {
	if base == 0 {
		switch {
		case now == 0:
			return 0
		case (now > 0) != higherBetter:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	d := (now - base) / math.Abs(base)
	if higherBetter {
		return -d
	}
	return d
}

// Verdict is the outcome of comparing one metric between two sets of runs.
type Verdict int

const (
	// Resolved: the medians differ by no more than the bound and the
	// spread is narrow enough to say so.
	Resolved Verdict = iota
	// Unresolved: the spread of either side is wider than the bound, so
	// "no worse" cannot be claimed (nor a regression).
	Unresolved
	// Regressed: the new median is worse than the old by more than the bound.
	Regressed
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Resolved:
		return "resolved"
	case Unresolved:
		return "unresolved"
	default:
		return "regressed"
	}
}

// Compare applies a metric's bound and direction to the runs of two
// sides. It reports a regression when the new median is worse than the
// old by more than the bound; otherwise the metric is unresolved when
// either side's spread exceeds the bound — unless every new run reads no
// worse than every old run — and resolved when not.
func Compare(old, now []float64, bound float64, higherBetter bool) Verdict {
	if len(old) == 0 || len(now) == 0 {
		return Unresolved
	}
	if Worsening(Median(old), Median(now), higherBetter) > bound {
		return Regressed
	}
	if len(old) > 1 && len(now) > 1 && (Spread(old) > bound || Spread(now) > bound) {
		so, sn := sorted(old), sorted(now)
		allBetter := sn[len(sn)-1] <= so[0]
		if higherBetter {
			allBetter = sn[0] >= so[len(so)-1]
		}
		if !allBetter {
			return Unresolved
		}
	}
	return Resolved
}
