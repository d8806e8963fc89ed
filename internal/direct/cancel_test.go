package direct

import (
	"context"
	"math"
	"testing"
	"time"

	"kairos/internal/floats"
)

// rastrigin is an expensive-ish multimodal objective.
func rastrigin(x []float64) float64 {
	sum := 10.0 * float64(len(x))
	for _, v := range x {
		sum += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return sum
}

func sameResult(t *testing.T, a, b Result, label string) {
	t.Helper()
	if !floats.Same(a.F, b.F) || a.Fevals != b.Fevals || a.Iters != b.Iters {
		t.Errorf("%s: (F=%v fevals=%d iters=%d) vs (F=%v fevals=%d iters=%d)",
			label, a.F, a.Fevals, a.Iters, b.F, b.Fevals, b.Iters)
	}
	for i := range a.X {
		if !floats.Same(a.X[i], b.X[i]) {
			t.Errorf("%s: X[%d] = %v vs %v", label, i, a.X[i], b.X[i])
		}
	}
}

// A cancelled context stops the search between iterations and surfaces the
// context error along with the best point found so far.
func TestMinimizeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	slow := func(x []float64) float64 {
		evals++
		if evals == 50 {
			cancel()
		}
		return rastrigin(x)
	}
	res, err := Minimize(slow, []float64{-5, -5}, []float64{5, 5},
		Options{MaxFevals: 1_000_000, MaxIters: 1_000_000, Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if res.Fevals >= 1000 {
		t.Errorf("cancellation ignored: %d fevals", res.Fevals)
	}
	if len(res.X) != 2 {
		t.Errorf("cancelled run lost the best point: %v", res.X)
	}
}

// A context that has already expired stops the search after the center.
func TestMinimizeExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Minimize(rastrigin, []float64{-5, -5}, []float64{5, 5},
		Options{MaxFevals: 1_000_000, MaxIters: 1_000_000, Ctx: ctx})
	if err == nil {
		t.Fatal("expired context returned nil error")
	}
	if res.Fevals != 1 {
		t.Errorf("an expired run evaluated %d points, want the center alone", res.Fevals)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation took too long")
	}
}
