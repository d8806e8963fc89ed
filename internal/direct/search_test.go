package direct

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomObjective is a seeded multimodal function of n variables: shifted
// quadratics plus cosine ripples, so DIRECT divides unevenly and batches vary
// in size.
func randomObjective(rng *rand.Rand, n int) Objective {
	shift, amp, freq := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range shift {
		shift[i], amp[i], freq[i] = rng.Float64()*4-2, rng.Float64()*3, 1+rng.Float64()*6
	}
	return func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - shift[i]
			s += d*d + amp[i]*math.Cos(freq[i]*v)
		}
		return s
	}
}

// recorder wraps an objective and logs every point it is handed.
type recorder struct {
	f      Objective
	points []string
}

func (r *recorder) objective(x []float64) float64 {
	r.points = append(r.points, fmt.Sprintf("%x", x))
	return r.f(x)
}

func multiset(lists ...[]string) map[string]int {
	m := map[string]int{}
	for _, l := range lists {
		for _, k := range l {
			m[k]++
		}
	}
	return m
}

// TestSearchResumeMatchesFresh is the resumable engine's contract: Run(b1)
// then Run(b2) on one search ends exactly where a new search's Run(b2) does —
// same point, same value bits, same evaluation and iteration counts — and
// between them the two runs hand the objective each of the new search's
// points once: the second run evaluates nothing the first already did. The
// first budget lands wherever it lands: on a batch boundary, inside a batch
// with values kept, or one evaluation short of the next pair.
func TestSearchResumeMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	midBatch, oddLeft := 0, 0
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		f := randomObjective(rng, n)
		lower, upper := make([]float64, n), make([]float64, n)
		for i := range lower {
			lower[i] = -3 + rng.Float64()
			upper[i] = 2 + rng.Float64()*2
		}
		b1 := 1 + rng.Intn(400)
		b2 := b1 + 1 + rng.Intn(600)
		label := fmt.Sprintf("trial %d (n=%d, budgets %d then %d)", trial, n, b1, b2)
		ctx := context.Background()

		fresh, err := NewSearch(lower, upper, Options{})
		if err != nil {
			t.Fatal(err)
		}
		whole := &recorder{f: f}
		want, err := fresh.Run(ctx, whole.objective, b2)
		if err != nil {
			t.Fatal(err)
		}

		s, err := NewSearch(lower, upper, Options{})
		if err != nil {
			t.Fatal(err)
		}
		first, second := &recorder{f: f}, &recorder{f: f}
		early, err := s.Run(ctx, first.objective, b1)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.kept) > 0 {
			midBatch++
		}
		if s.Fevals() == b1-1 {
			oddLeft++
		}
		// The first run alone is a new search's run at the small budget.
		alone, err := Minimize(f, lower, upper, Options{MaxFevals: b1})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, alone, early, label+": Run(b1) vs Minimize at b1")

		got, err := s.Run(ctx, second.objective, b2)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, label+": resumed vs fresh")
		if math.Float64bits(want.F) != math.Float64bits(got.F) {
			t.Errorf("%s: F bits %#x vs %#x", label, math.Float64bits(want.F), math.Float64bits(got.F))
		}
		if len(first.points)+len(second.points) != got.Fevals || len(whole.points) != want.Fevals {
			t.Errorf("%s: the runs evaluated %d + %d points for Fevals = %d (fresh: %d for %d)",
				label, len(first.points), len(second.points), got.Fevals, len(whole.points), want.Fevals)
		}
		split, all := multiset(first.points, second.points), multiset(whole.points)
		for k, c := range all {
			if split[k] != c {
				t.Errorf("%s: point %s evaluated %d times over the two runs, %d by the fresh one", label, k, split[k], c)
				break
			}
		}
		if len(split) != len(all) {
			t.Errorf("%s: the two runs evaluated %d distinct points, the fresh run %d", label, len(split), len(all))
		}
		if t.Failed() {
			return
		}
	}
	if midBatch < 20 || oddLeft < 5 {
		t.Errorf("%d first runs stopped inside a batch with values kept and %d one evaluation short: the trials do not exercise the cut", midBatch, oddLeft)
	}
}

// TestSearchRunsPastItsBudget: a run whose budget the search has already
// spent evaluates nothing and reports the search as it stands.
func TestSearchRunsPastItsBudget(t *testing.T) {
	s, err := NewSearch([]float64{-2, -2}, []float64{2, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(context.Background(), rastrigin, 300)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Run(context.Background(), func([]float64) float64 {
		t.Fatal("a run within the spent budget evaluated a point")
		return 0
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, first, again, "second run at a smaller budget")
}

// TestLevelsStayBounded is the regression test of the wrapping trisection
// level: a 1-D quadratic refined far past the resolution of a float64 used to
// push a side's int8 level past 127 to −128 — a side 3^128 long. A dimension
// whose δ no longer moves the center is no longer divided, and the run ends
// when nothing is divisible.
func TestLevelsStayBounded(t *testing.T) {
	s, err := NewSearch([]float64{0}, []float64{1}, Options{MaxIters: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background(), func(x []float64) float64 { return (x[0] - 0.3) * (x[0] - 0.3) }, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.X[0] >= 0 && res.X[0] <= 1) || math.Abs(res.X[0]-0.3) > 1e-9 {
		t.Errorf("X = %v, want 0.3 inside [0, 1]", res.X)
	}
	seen := map[float64]bool{}
	for _, r := range s.rects {
		if l := r.levels[0]; l < 0 || l > 40 {
			t.Fatalf("a rectangle at %v reached level %d; on the unit interval δ stops moving a center near level 33", r.center, l)
		}
		if seen[r.center[0]] {
			t.Fatalf("center %v was sampled twice: a δ that moved nothing was divided", r.center[0])
		}
		seen[r.center[0]] = true
	}

	// A center close enough to 0 is moved by every δ down to the last level
	// int8 holds: there the level cap itself ends the refinement.
	s, err = NewSearch([]float64{0}, []float64{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	corner := &rect{center: []float64{pow3[maxLevel] / 2}, levels: []int8{maxLevel}}
	corner.computeSize()
	s.rects, s.best, s.fevals = []*rect{corner}, corner, 1
	res, err = s.Run(context.Background(), func([]float64) float64 {
		t.Fatal("a side at the last level was divided")
		return 0
	}, 100)
	if err != nil || res.Fevals != 1 {
		t.Errorf("run from the last level: Fevals = %d, err = %v; want it to end at once", res.Fevals, err)
	}
}
