// Package direct implements the DIRECT (DIviding RECTangles) global
// optimization algorithm of Jones, Perttunen and Stuckman — the solver the
// paper uses (via Tomlab) for its mixed-integer non-linear consolidation
// program (Section 5: "we employ a general-purpose global optimization
// algorithm called DIRECT").
//
// DIRECT is a deterministic, derivative-free, Lipschitz-inspired method: it
// normalizes the search box to the unit hypercube, keeps a set of
// hyper-rectangles with sampled centers, and at each iteration selects the
// "potentially optimal" rectangles — those on the lower convex hull of the
// (size, f) scatter — and trisects them along their longest sides. The
// Epsilon parameter trades global exploration against local refinement,
// which is exactly the knob Section 6 of the paper tunes after bounding the
// number of servers.
//
// The engine evaluates each iteration's candidate points as one batch, on
// the calling goroutine: a batch is too fine-grained to pay for spreading
// it over goroutines.
//
// A Search is resumable. Run takes the budget as a cap on the search's total
// evaluations; a batch the budget cuts short is evaluated up to the budget —
// always a prefix of the batch, in pairs — and its values are kept, counted
// and reflected in the Result, but nothing is divided. A later Run with a
// larger budget gathers the same batch from the same rectangles, evaluates
// only the points past the kept values and goes on, so Run(b1) then Run(b2)
// ends exactly where a new search's Run(b2) does, having handed the
// objective only the points the first run did not. Minimize is one Run on a
// new Search.
package direct

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kairos/internal/floats"
)

// Objective is a function to minimize. The slice must not be retained.
type Objective func(x []float64) float64

// Options controls the optimizer budget and behaviour.
type Options struct {
	// MaxFevals is the budget Minimize hands to its one Run (default
	// 5000). A Search's own Run takes the budget per call and ignores it.
	MaxFevals int
	// MaxIters caps the search's DIRECT iterations (default 1000).
	MaxIters int
	// Epsilon is the potential-optimality slack: larger values bias the
	// search toward rectangles that promise global improvement, smaller
	// values allow more local polishing around the incumbent (default 1e-4).
	Epsilon float64
	// Target stops the search early once f ≤ Target (use -Inf to disable;
	// the zero value disables too when TargetSet is false). The condition is
	// checked after each completed iteration batch.
	Target float64
	// TargetSet enables Target.
	TargetSet bool
	// Ctx optionally cancels Minimize between iterations: when it expires,
	// the best point found so far is returned along with the context's
	// error. Nil means never cancel. A Search's own Run takes the context
	// per call.
	Ctx context.Context
}

// Result is the outcome of a minimization.
type Result struct {
	// X is the best point found, in original (unnormalized) coordinates.
	X []float64
	// F is the objective value at X.
	F float64
	// Fevals is the number of objective evaluations the search has performed,
	// over all its runs.
	Fevals int
	// Iters is the number of DIRECT iterations performed, counting one the
	// budget cut short after evaluating part of it.
	Iters int
}

// maxLevel bounds a side's trisection level: rect.levels holds int8.
const maxLevel = math.MaxInt8

// pow3[l] is 3^-l, the length of a side at trisection level l.
var pow3 = func() (t [maxLevel + 1]float64) {
	for l := range t {
		t[l] = math.Pow(3, -float64(l))
	}
	return t
}()

// rect is one hyper-rectangle: a center point (normalized coordinates), its
// objective value, and per-dimension trisection levels (side i has length
// 3^-levels[i]).
type rect struct {
	center []float64
	f      float64
	levels []int8
	// d is the half-diagonal, the rectangle's "size" in the (size, f)
	// potential-optimality plane.
	d float64
}

func (r *rect) computeSize() {
	var s float64
	for _, l := range r.levels {
		side := pow3[l]
		s += side * side / 4
	}
	r.d = math.Sqrt(s)
}

// checkBounds validates the search box.
func checkBounds(lower, upper []float64) error {
	if len(lower) == 0 || len(upper) != len(lower) {
		return fmt.Errorf("direct: bounds must be non-empty and equal length (got %d/%d)",
			len(lower), len(upper))
	}
	for i := range lower {
		if !(upper[i] > lower[i]) {
			return fmt.Errorf("direct: upper[%d]=%v not greater than lower[%d]=%v",
				i, upper[i], i, lower[i])
		}
	}
	return nil
}

func (o *Options) applyDefaults() {
	if o.MaxFevals <= 0 {
		o.MaxFevals = 5000
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 1000
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-4
	}
}

// Minimize runs DIRECT on f over the box [lower, upper]. The objective is
// called from the invoking goroutine only.
func Minimize(f Objective, lower, upper []float64, opt Options) (Result, error) {
	s, err := NewSearch(lower, upper, opt)
	if err != nil {
		return Result{}, err
	}
	return s.Run(opt.Ctx, f, s.opt.MaxFevals)
}

// Search is one DIRECT search over a box: the rectangles it has divided so
// far, and the values of a batch its last run's budget cut short. It is not
// safe for concurrent use.
type Search struct {
	lower, upper []float64
	opt          Options

	rects  []*rect
	best   *rect // lowest f among rects
	fevals int   // evaluations behind rects
	iters  int   // batches divided

	// The batch the last run's budget cut short: the values of its
	// evaluated prefix, and the best sample among those when it beats best.
	// The next run that can afford more gathers the batch again and
	// evaluates on from len(kept); dividing it clears both.
	kept     []float64
	keptBest *rect
}

// NewSearch prepares a search of the box [lower, upper]; nothing is evaluated
// until its first run.
func NewSearch(lower, upper []float64, opt Options) (*Search, error) {
	if err := checkBounds(lower, upper); err != nil {
		return nil, err
	}
	opt.applyDefaults()
	return &Search{lower: append([]float64(nil), lower...), upper: append([]float64(nil), upper...), opt: opt}, nil
}

// Fevals returns the number of objective evaluations the search has
// performed.
func (s *Search) Fevals() int { return s.fevals + len(s.kept) }

// Run continues the search on f until it has spent budget evaluations in
// all (the box's center is evaluated regardless), calling f from the
// invoking goroutine only. ctx cancels it between iterations: the best point
// so far is returned with the context's error; nil means never cancel. Each
// iteration gathers every candidate point, evaluates the batch, then
// processes results in gathering order, so the trajectory does not depend
// on how many runs the evaluations were spread over.
func (s *Search) Run(ctx context.Context, f Objective, budget int) (Result, error) {
	if f == nil {
		return Result{}, fmt.Errorf("direct: nil objective")
	}
	buf := make([]float64, len(s.lower))
	eval := func(x []float64) float64 { return f(s.denormalize(x, buf)) }
	if s.rects == nil {
		// Seed: the center of the cube.
		c0 := make([]float64, len(s.lower))
		for i := range c0 {
			c0[i] = 0.5
		}
		first := &rect{center: c0, f: eval(c0), levels: make([]int8, len(c0))}
		first.computeSize()
		s.rects, s.best, s.fevals = []*rect{first}, first, 1
	}
	var err error
	for s.iters < s.opt.MaxIters && s.Fevals() < budget && !(s.opt.TargetSet && s.best.f <= s.opt.Target) {
		if ctx != nil && ctx.Err() != nil {
			err = ctx.Err()
			break
		}
		divs, points := s.gather()
		if len(points) == 0 {
			break // nothing left to divide
		}
		// Evaluate on from the kept values, in pairs, as far as the budget
		// goes: one evaluation left evaluates nothing.
		from := len(s.kept)
		upto := min(len(points), from+(budget-s.Fevals())&^1)
		for _, x := range points[from:upto] {
			s.kept = append(s.kept, eval(x))
		}
		if upto < len(points) {
			for i := from; i < upto; i++ {
				if s.kept[i] < s.incumbent().f {
					s.keptBest = &rect{center: points[i], f: s.kept[i]}
				}
			}
			break
		}
		s.divide(divs, points, s.kept)
		s.fevals += len(points)
		s.iters++
		s.kept, s.keptBest = s.kept[:0], nil
	}
	return s.result(), err
}

// denormalize maps a point of the unit cube to the box, into buf.
func (s *Search) denormalize(x, buf []float64) []float64 {
	for d, v := range x {
		buf[d] = s.lower[d] + v*(s.upper[d]-s.lower[d])
	}
	return buf
}

// division is one trisection a batch asks for: rectangle rectIdx along dim,
// sampled at batch points loIdx (c − δ) and loIdx+1 (c + δ).
type division struct {
	rectIdx, dim, loIdx int
	lo, hi              *rect
	bestOfPair          float64
}

// incumbent returns the best sample so far, kept values included.
func (s *Search) incumbent() *rect {
	if s.keptBest != nil {
		return s.keptBest
	}
	return s.best
}

// result reports the search as it stands.
func (s *Search) result() Result {
	res := Result{F: s.incumbent().f, Fevals: s.Fevals(), Iters: s.iters}
	if len(s.kept) > 0 {
		res.Iters++
	}
	res.X = s.denormalize(s.incumbent().center, make([]float64, len(s.lower)))
	return res
}

// gather lists the next iteration's divisions and their sample points:
// c ± δ·e_dim for each longest dimension of each potentially-optimal
// rectangle, in deterministic order. A dimension whose δ no longer moves
// the center — both samples would be the center again — is not offered, nor
// one at maxLevel.
func (s *Search) gather() (divs []division, points [][]float64) {
	for _, ri := range potentiallyOptimal(s.rects, s.best.f, s.opt.Epsilon) {
		r := s.rects[ri]
		minLevel := r.levels[0]
		for _, l := range r.levels {
			if l < minLevel {
				minLevel = l
			}
		}
		if minLevel == maxLevel {
			continue
		}
		delta := pow3[minLevel] / 3
		for dim, l := range r.levels {
			c := r.center[dim]
			if l != minLevel || floats.Same(c-delta, c) || floats.Same(c+delta, c) {
				continue
			}
			lo := append([]float64(nil), r.center...)
			hi := append([]float64(nil), r.center...)
			lo[dim], hi[dim] = c-delta, c+delta
			divs = append(divs, division{rectIdx: ri, dim: dim, loIdx: len(points)})
			points = append(points, lo, hi)
		}
	}
	return divs, points
}

// divide processes a fully evaluated batch rect by rect, in gathering order.
func (s *Search) divide(divs []division, points [][]float64, values []float64) {
	for di := 0; di < len(divs); {
		ri := divs[di].rectIdx
		r := s.rects[ri]
		var group []division
		for di < len(divs) && divs[di].rectIdx == ri {
			p := divs[di]
			p.lo = &rect{center: points[p.loIdx], f: values[p.loIdx]}
			p.hi = &rect{center: points[p.loIdx+1], f: values[p.loIdx+1]}
			if p.lo.f < s.best.f {
				s.best = p.lo
			}
			if p.hi.f < s.best.f {
				s.best = p.hi
			}
			p.bestOfPair = math.Min(p.lo.f, p.hi.f)
			group = append(group, p)
			di++
		}
		// Divide along the probed dimensions, best pair first (the
		// original DIRECT ordering keeps good regions in big boxes).
		sort.SliceStable(group, func(a, b int) bool {
			return group[a].bestOfPair < group[b].bestOfPair
		})
		for _, p := range group {
			r.levels[p.dim]++
			p.lo.levels = append([]int8(nil), r.levels...)
			p.hi.levels = append([]int8(nil), r.levels...)
			p.lo.computeSize()
			p.hi.computeSize()
			s.rects = append(s.rects, p.lo, p.hi)
		}
		r.computeSize()
	}
}

// potentiallyOptimal returns indices of rectangles on the lower-right convex
// hull of the (size, f) scatter that also promise sufficient improvement
// over fmin (the epsilon condition).
func potentiallyOptimal(rects []*rect, fmin, eps float64) []int {
	// Representative per size class: the rect with minimal f.
	type classRep struct {
		d   float64
		f   float64
		idx int
	}
	byClass := map[int64]classRep{}
	for i, r := range rects {
		key := int64(math.Round(r.d * 1e12))
		rep, ok := byClass[key]
		if !ok || r.f < rep.f {
			byClass[key] = classRep{d: r.d, f: r.f, idx: i}
		}
	}
	reps := make([]classRep, 0, len(byClass))
	for _, rep := range byClass {
		reps = append(reps, rep)
	}
	sort.Slice(reps, func(a, b int) bool {
		if !floats.Same(reps[a].d, reps[b].d) {
			return reps[a].d < reps[b].d
		}
		return reps[a].f < reps[b].f
	})

	// Lower convex hull over (d, f), d ascending.
	var hull []classRep
	for _, p := range reps {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it lies above segment a→p.
			if (b.f-a.f)*(p.d-a.d) >= (p.f-a.f)*(b.d-a.d) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}

	// Epsilon condition: the rectangle must be able to beat
	// fmin − eps·|fmin| given the hull slope to its right neighbours.
	threshold := fmin - eps*math.Abs(fmin)
	var out []int
	for i, p := range hull {
		if i == len(hull)-1 {
			// The largest rectangle is always potentially optimal.
			out = append(out, p.idx)
			continue
		}
		next := hull[i+1]
		slope := (next.f - p.f) / (next.d - p.d)
		if p.f-slope*p.d <= threshold {
			out = append(out, p.idx)
		}
	}
	return out
}
