package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := Percentile(v, c.p); !near(got, c.want) {
			t.Errorf("Percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("Median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of no samples is not NaN")
	}
	if v[0] != 5 {
		t.Error("Percentile sorted its argument in place")
	}
}

// Quartiles must be the cut points of Python's
// statistics.quantiles(v, n=4), which the driver uses.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = Quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("Quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The tail to report is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {39, 0, false}, {40, 75, true}, {49, 75, true}, {50, 80, true}, {99, 80, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {500, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := TailPercentile(c.n)
		if ok != c.ok || !near(got, c.want) {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	span := Interval{10, 110}
	for _, c := range []struct {
		name     string
		children []Interval
		want     float64
	}{
		{"no children", nil, 100},
		{"disjoint", []Interval{{20, 30}, {50, 70}}, 70},
		{"overlapping children count once", []Interval{{20, 60}, {40, 80}}, 40},
		{"nested child adds nothing", []Interval{{20, 80}, {30, 40}}, 40},
		{"children are clipped to the span", []Interval{{0, 20}, {100, 200}}, 80},
		{"a child outside the span is ignored", []Interval{{200, 300}}, 100},
		{"children covering the span leave nothing", []Interval{{0, 60}, {60, 120}}, 0},
		{"unsorted", []Interval{{90, 100}, {20, 30}, {25, 35}}, 75},
	} {
		if got := SelfTime(span, c.children); !near(got, c.want) {
			t.Errorf("%s: SelfTime = %v, want %v", c.name, got, c.want)
		}
	}
	if got := SelfTime(Interval{5, 5}, []Interval{{0, 10}}); got != 0 {
		t.Errorf("an empty span has self time %v", got)
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	if got := Worsening(100, 110, false); !near(got, 0.10) {
		t.Errorf("latency 100 -> 110 worsened by %v, want 0.10", got)
	}
	if got := Worsening(100, 110, true); !near(got, -0.10) {
		t.Errorf("throughput 100 -> 110 worsened by %v, want -0.10", got)
	}
	if got := Worsening(100, 80, true); !near(got, 0.20) {
		t.Errorf("throughput 100 -> 80 worsened by %v, want 0.20", got)
	}
	if got := Worsening(0, 0, false); got != 0 {
		t.Errorf("0 -> 0 worsened by %v", got)
	}
	if got := Worsening(0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("lower-is-better 0 -> 1 worsened by %v, want +Inf", got)
	}
}

func TestCompare(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c * 1.005} }
	wide := func(c float64) []float64 { return []float64{c * 0.6, c * 0.8, c, c * 1.2, c * 1.4} }
	for _, c := range []struct {
		name     string
		old, now []float64
		bound    float64
		higher   bool
		want     Verdict
	}{
		{"same", tight(100), tight(100), 0.10, false, Resolved},
		{"slower within the bound", tight(100), tight(108), 0.10, false, Resolved},
		{"slower beyond the bound", tight(100), tight(115), 0.10, false, Regressed},
		{"faster is never a regression", tight(100), tight(50), 0.10, false, Resolved},
		{"throughput down beyond the bound", tight(100), tight(85), 0.10, true, Regressed},
		{"throughput up", tight(100), tight(130), 0.10, true, Resolved},
		{"spread wider than the bound", wide(100), wide(102), 0.10, false, Unresolved},
		{"wide but every new run beats every old run", wide(100), wide(20), 0.10, false, Resolved},
		{"wide and regressed is still regressed", wide(100), wide(150), 0.10, false, Regressed},
		{"a zero bound accepts an exact repeat", []float64{16, 16}, []float64{16, 16}, 0, false, Resolved},
		{"a zero bound rejects one more machine", []float64{16, 16}, []float64{17, 17}, 0, false, Regressed},
		{"nothing to compare", nil, tight(100), 0.10, false, Unresolved},
		{"single runs compare by value", []float64{100}, []float64{105}, 0.10, false, Resolved},
	} {
		if got := Compare(c.old, c.now, c.bound, c.higher); got != c.want {
			t.Errorf("%s: Compare = %v, want %v", c.name, got, c.want)
		}
	}
}
